package hotalloc

import (
	"flag"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"vread/internal/analysis"
)

var update = flag.Bool("update", false, "rewrite "+hotsetPath+" from the current code")

const hotsetPath = "testdata/hotset.txt"

// TestHotSet pins the names of the functions hotalloc checks on the real
// tree, one per line in name order. A change that marks, unmarks or cuts off
// a hot path shows up here as a diff; refresh with -update and say why.
func TestHotSet(t *testing.T) {
	pkgs, err := analysis.Load(filepath.Join("..", "..", ".."), []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for n := range hotTree(analysis.NewProgram(pkgs).Graph(), func(token.Pos) {}) {
		names = append(names, n.Name)
	}
	sort.Strings(names)
	got := strings.Join(names, "\n") + "\n"
	if *update {
		if err := os.WriteFile(hotsetPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(hotsetPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("hot set differs from %s (run with -update after a deliberate change):\n%s", hotsetPath, lineDiff(string(want), got))
	}
}

// lineDiff lists the lines only in want (-) and only in got (+).
func lineDiff(want, got string) string {
	var b strings.Builder
	side := func(mark, from, other string) {
		in := map[string]bool{}
		for _, l := range strings.Split(other, "\n") {
			in[l] = true
		}
		for _, l := range strings.Split(strings.TrimSpace(from), "\n") {
			if !in[l] {
				b.WriteString(mark + " " + l + "\n")
			}
		}
	}
	side("-", want, got)
	side("+", got, want)
	return b.String()
}

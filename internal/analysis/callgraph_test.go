package analysis_test

import (
	"os"
	"strings"
	"testing"

	"vread/internal/analysis"
)

// loadEdgeList loads the given real packages into a fresh Program and
// renders its call graph's edges one "caller -> callee" per line, in graph
// order: nodes by name, then each node's callees by name.
func loadEdgeList(t *testing.T, patterns ...string) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := analysis.Load(wd, patterns)
	if err != nil {
		t.Fatalf("Load(%v): %v", patterns, err)
	}
	g := analysis.NewProgram(pkgs).Graph()
	var b strings.Builder
	for _, n := range g.Nodes {
		for _, c := range g.Callees(n) {
			b.WriteString(n.Name + " -> " + c.Name + "\n")
		}
	}
	return b.String()
}

// TestCallGraphDeterministic asserts the property every program analyzer
// leans on: building the call graph twice — two independent Loads, two
// FileSets, two map-iteration schedules — yields byte-identical edge
// lists. Any map-order leak in graph construction shows up here as a diff.
func TestCallGraphDeterministic(t *testing.T) {
	patterns := []string{"vread/internal/sim", "vread/internal/virtio", "vread/internal/netsim"}
	first := loadEdgeList(t, patterns...)
	second := loadEdgeList(t, patterns...)
	if first == "" {
		t.Fatalf("empty edge list for %v", patterns)
	}
	if first != second {
		t.Errorf("edge list differs between two builds of the same packages:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
	// Spot-check shape: every line is "caller -> callee" and the list is
	// sorted, which is what makes the bytes comparable at all.
	lines := strings.Split(strings.TrimSuffix(first, "\n"), "\n")
	for i, ln := range lines {
		if !strings.Contains(ln, " -> ") {
			t.Fatalf("edge %d not in canonical form: %q", i, ln)
		}
		if i > 0 && lines[i-1] > ln {
			t.Errorf("edge list not sorted at %d: %q > %q", i, lines[i-1], ln)
		}
	}
}

package all

import (
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var evidence = flag.Bool("evidence", false, "prove every mutations.txt entry in a throwaway copy of the tree (make lint-evidence)")

// root is the module root, relative to this package's directory.
const root = "../../.."

// mutation is one mutations.txt entry: a defect that its analyzer flags and
// that go test ./... lets through.
type mutation struct {
	analyzer, file, why string
	edits               []edit
	line                int // the entry's header line in mutations.txt
}

// edit replaces old, a block of consecutive lines that must occur exactly
// once in the file, with repl. Lines compare with blanks trimmed; repl is
// written unindented, which the compiler does not mind.
type edit struct{ old, repl []string }

func (m mutation) String() string {
	return fmt.Sprintf("mutations.txt:%d (%s %s)", m.line, m.analyzer, m.file)
}

// readMutations parses mutations.txt; its header comment gives the format.
func readMutations(t *testing.T) []mutation {
	t.Helper()
	raw, err := os.ReadFile("mutations.txt")
	if err != nil {
		t.Fatal(err)
	}
	var out []mutation
	for i, line := range strings.Split(string(raw), "\n") {
		var m *mutation
		if len(out) > 0 {
			m = &out[len(out)-1]
		}
		text := strings.TrimSpace(line)
		switch {
		case text == "" || strings.HasPrefix(line, "#"):
		case strings.HasPrefix(line, "== "):
			f := strings.Fields(line[3:])
			if len(f) != 2 {
				t.Fatalf("mutations.txt:%d: want \"== <analyzer> <file>\"", i+1)
			}
			out = append(out, mutation{analyzer: f[0], file: f[1], line: i + 1})
		case m == nil:
			t.Fatalf("mutations.txt:%d: text before the first entry", i+1)
		case line[0] == '-':
			if len(m.edits) == 0 || len(m.edits[len(m.edits)-1].repl) > 0 {
				m.edits = append(m.edits, edit{})
			}
			e := &m.edits[len(m.edits)-1]
			e.old = append(e.old, strings.TrimSpace(line[1:]))
		case line[0] == '+' && len(m.edits) > 0:
			e := &m.edits[len(m.edits)-1]
			e.repl = append(e.repl, strings.TrimSpace(line[1:]))
		case len(m.edits) == 0:
			m.why = strings.TrimSpace(m.why + " " + text)
		default:
			t.Fatalf("mutations.txt:%d: want a \"-\" or \"+\" line", i+1)
		}
	}
	return out
}

// apply returns src with m's edits made, or an error if an edit's block
// does not occur exactly once.
func (m mutation) apply(src string) (string, error) {
	lines := strings.Split(src, "\n")
	for _, e := range m.edits {
		at := -1
		for i := range lines {
			if !blockAt(lines[i:], e.old) {
				continue
			}
			if at >= 0 {
				return "", fmt.Errorf("%q occurs more than once in %s", e.old, m.file)
			}
			at = i
		}
		if at < 0 {
			return "", fmt.Errorf("%q does not occur in %s", e.old, m.file)
		}
		tail := append([]string(nil), lines[at+len(e.old):]...)
		lines = append(append(lines[:at], e.repl...), tail...)
	}
	return strings.Join(lines, "\n"), nil
}

func blockAt(lines, block []string) bool {
	if len(block) > len(lines) {
		return false
	}
	for j, b := range block {
		if strings.TrimSpace(lines[j]) != b {
			return false
		}
	}
	return true
}

// TestMutationsInStep keeps mutations.txt in step with the tree: every entry
// names a registered analyzer, says what its defect is and still applies,
// and every registered analyzer has an entry. Code that moves under an entry
// fails here at once, not in the slow evidence run.
func TestMutationsInStep(t *testing.T) {
	covered := map[string]bool{}
	for _, m := range readMutations(t) {
		covered[m.analyzer] = true
		src, err := os.ReadFile(filepath.Join(root, m.file))
		if err == nil {
			_, err = m.apply(string(src))
		}
		switch {
		case err != nil:
			t.Errorf("%v: %v", m, err)
		case m.why == "" || len(m.edits) == 0:
			t.Errorf("%v: an entry needs a description and at least one edit", m)
		}
	}
	for _, a := range Analyzers() {
		if !covered[a.Name] {
			t.Errorf("analyzer %s has no mutation in mutations.txt: give it a defect only it catches, or delete it", a.Name)
		}
		delete(covered, a.Name)
	}
	for name := range covered {
		t.Errorf("mutations.txt names %s, which is not a registered analyzer", name)
	}
}

// TestMutationEvidence proves every entry in a copy of the tree: unmutated,
// the copy lints clean and passes go test ./...; with each mutation in turn,
// the entry's analyzer flags it and go test ./... still passes. The copy
// keeps one build and test cache, so each mutation re-runs only the packages
// it reaches. TestMutationsInStep reads the tree, so it would reject every
// mutation; the copy's go test skips it.
func TestMutationEvidence(t *testing.T) {
	if !*evidence {
		t.Skip("slow; run with -evidence (make lint-evidence)")
	}
	dir := t.TempDir()
	if err := copyTree(dir, root); err != nil {
		t.Fatal(err)
	}
	lint := filepath.Join(dir, "vread-lint")
	goTest := []string{"go", "test", "-skip", "^TestMutationsInStep$", "./..."}
	for _, cmd := range [][]string{{"go", "build", "-o", lint, "./cmd/vread-lint"}, {lint, "./..."}, goTest} {
		if out, err := run(dir, cmd...); err != nil {
			t.Fatalf("unmutated tree: %s: %v\n%s", strings.Join(cmd, " "), err, out)
		}
	}
	for _, m := range readMutations(t) {
		path := filepath.Join(dir, m.file)
		orig, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		mutated, err := m.apply(string(orig))
		if err == nil {
			err = os.WriteFile(path, []byte(mutated), 0o644)
		}
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		lintOut, _ := run(dir, lint, "-run", m.analyzer, "./...")
		testOut, testErr := run(dir, goTest...)
		if err := os.WriteFile(path, orig, 0o644); err != nil {
			t.Fatal(err)
		}
		switch {
		case !strings.Contains(lintOut, ": "+m.analyzer+": "):
			t.Errorf("%v: %s does not flag it:\n%s", m, m.analyzer, lintOut)
		case testErr != nil:
			t.Errorf("%v: go test ./... already catches it:\n%s", m, testOut)
		default:
			finding, _, _ := strings.Cut(lintOut, "\n")
			t.Logf("%v: go test passes; %s", m, finding)
		}
	}
}

func run(dir string, cmd ...string) (string, error) {
	c := exec.Command(cmd[0], cmd[1:]...)
	c.Dir = dir
	out, err := c.CombinedOutput()
	return string(out), err
}

// copyTree copies the module at src to dst, leaving out .git, the build
// outputs .gitignore names, and nested modules, which go test ./... does not
// enter.
func copyTree(dst, src string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		to := filepath.Join(dst, rel)
		switch {
		case !d.IsDir():
			if !d.Type().IsRegular() {
				return nil
			}
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			return os.WriteFile(to, b, 0o644)
		case rel == ".":
			return nil
		case rel == ".git" || rel == "bin" || rel == ".bench_build":
			return filepath.SkipDir
		}
		if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
			return filepath.SkipDir
		}
		return os.Mkdir(to, 0o755)
	})
}

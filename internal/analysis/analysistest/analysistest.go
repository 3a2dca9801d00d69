// Package analysistest runs an analyzer over fixture packages under a
// testdata/src tree and checks its diagnostics against // want comments — a
// self-contained stand-in for golang.org/x/tools' package of the same name.
//
// Fixture layout mirrors the upstream convention:
//
//	testdata/src/<import/path>/*.go
//
// Imports inside fixtures resolve against testdata/src first and fall back
// to the real build: standard-library and module packages are imported from
// compiled export data located with `go list -export`, so fixtures can use
// the real sim.Mutex and trace.Trace types the analyzers match on.
//
// Expectations are comments of the form
//
//	expr // want `regexp` `another regexp`
//
// Every diagnostic must match an unclaimed want on its (file, line), and
// every want must be claimed by some diagnostic. Suppression directives
// (//lint:allow) are honored exactly as in vread-lint, so fixtures can also
// prove the escape hatch works.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"vread/internal/analysis"
)

// TestData returns the caller's testdata directory.
func TestData(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Join(wd, "testdata")
}

// Run loads the fixture packages from testdata/src/<path>, applies the
// analyzer through RunSuite (with //lint:allow suppression and the
// stale-suppression report, exactly as vread-lint does), and compares the
// diagnostics against the fixtures' // want comments. A //lint:allow naming
// the analyzer that suppresses nothing must be claimed by a "stale
// suppression" want; allows naming other analyzers are not judged.
//
// All listed packages load into one Program and the analyzer runs once over
// it, so interprocedural analyzers see a cross-package call graph: a fixture
// that needs propagation between packages simply lists every package
// involved. Packages a fixture merely imports for types (the sim/trace stubs)
// resolve through the importer but stay out of the Program — their bodies are
// not analyzed.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	fset := token.NewFileSet()
	imp := &fixtureImporter{
		fset:    fset,
		srcRoot: filepath.Join(testdata, "src"),
		cache:   map[string]*analysis.Package{},
		exports: analysis.ExportImporter(fset, "", map[string]string{}),
	}
	var pkgs []*analysis.Package
	for _, path := range pkgPaths {
		pkg, err := imp.loadFixture(path)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", path, err)
		}
		pkgs = append(pkgs, pkg)
	}
	prog := analysis.NewProgram(pkgs)
	diags, _, err := analysis.RunSuite(prog, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	check(t, fset, prog, diags)
}

// ---------------------------------------------------------------------------
// Fixture loading.

// fixtureImporter resolves imports from testdata/src first, then from the
// surrounding module's compiled export data.
type fixtureImporter struct {
	fset    *token.FileSet
	srcRoot string
	cache   map[string]*analysis.Package
	exports types.Importer // the module's packages, listed on first import
}

var _ types.Importer = (*fixtureImporter)(nil)

func (im *fixtureImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := im.cache[path]; ok {
		return pkg.Types, nil
	}
	if dir := filepath.Join(im.srcRoot, filepath.FromSlash(path)); isDir(dir) {
		pkg, err := im.loadFixture(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return im.exports.Import(path)
}

func (im *fixtureImporter) loadFixture(path string) (*analysis.Package, error) {
	if pkg, ok := im.cache[path]; ok {
		return pkg, nil
	}
	dir := filepath.Join(im.srcRoot, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	// Mirror the real loader, which reads no *_test.go files.
	var files []string
	for _, e := range entries {
		if name := e.Name(); !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			files = append(files, filepath.Join(dir, name))
		}
	}
	sort.Strings(files)
	if len(files) == 0 {
		return nil, fmt.Errorf("no fixture files in %s", dir)
	}
	pkg, err := analysis.Check(im.fset, im, path, dir, files)
	if err != nil {
		return nil, err
	}
	im.cache[path] = pkg
	return pkg, nil
}

func isDir(path string) bool {
	st, err := os.Stat(path)
	return err == nil && st.IsDir()
}

// ---------------------------------------------------------------------------
// Matching diagnostics against // want comments.

var wantRx = regexp.MustCompile(`//\s*want\s+(.*)`)

type want struct {
	pos     token.Position
	rx      *regexp.Regexp
	matched bool
}

func check(t *testing.T, fset *token.FileSet, prog *analysis.Program, diags []analysis.Diagnostic) {
	t.Helper()
	wants := parseWants(t, fset, prog)
	for _, d := range diags {
		if w := claim(wants, d); w != nil {
			w.matched = true
			continue
		}
		t.Errorf("%s: unexpected diagnostic: %s: %s", d.Pos, d.Analyzer, d.Message)
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s: no diagnostic matched want %q", w.pos, w.rx)
		}
	}
}

func claim(wants []*want, d analysis.Diagnostic) *want {
	for _, w := range wants {
		if !w.matched && w.pos.Filename == d.Pos.Filename && w.pos.Line == d.Pos.Line && w.rx.MatchString(d.Message) {
			return w
		}
	}
	return nil
}

func parseWants(t *testing.T, fset *token.FileSet, prog *analysis.Program) []*want {
	t.Helper()
	var files []*ast.File
	for _, pkg := range prog.Pkgs {
		files = append(files, pkg.Files...)
	}
	var wants []*want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRx.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, pat := range parsePatterns(t, pos, m[1]) {
					rx, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", pos, pat, err)
					}
					wants = append(wants, &want{pos: pos, rx: rx})
				}
			}
		}
	}
	return wants
}

// parsePatterns splits the text after "want" into backquoted or quoted
// regular expressions.
func parsePatterns(t *testing.T, pos token.Position, s string) []string {
	t.Helper()
	var pats []string
	s = strings.TrimSpace(s)
	for s != "" {
		switch s[0] {
		case '`':
			end := strings.IndexByte(s[1:], '`')
			if end < 0 {
				t.Fatalf("%s: unterminated want pattern %q", pos, s)
			}
			pats = append(pats, s[1:1+end])
			s = strings.TrimSpace(s[end+2:])
		case '"':
			q, err := strconv.QuotedPrefix(s)
			if err != nil {
				t.Fatalf("%s: bad want pattern %q: %v", pos, s, err)
			}
			unq, err := strconv.Unquote(q)
			if err != nil {
				t.Fatalf("%s: bad want pattern %q: %v", pos, q, err)
			}
			pats = append(pats, unq)
			s = strings.TrimSpace(s[len(q):])
		default:
			t.Fatalf("%s: want patterns must be `backquoted` or \"quoted\", got %q", pos, s)
		}
	}
	return pats
}

package analysis

// The driver. RunSuite is what cmd/vread-lint and the analysistest harness
// call: it loads nothing itself (callers bring a []*Package from Load or a
// fixture loader), builds the shared call graph once, merges //lint:allow
// suppressions across every file of every package — keyed by full path, so
// same-named files in different packages cannot suppress each other's
// findings — runs every analyzer over the whole program, and reports the
// //lint:allow directives that suppressed nothing.

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
	"time"
)

// Program is one loaded set of packages plus the interprocedural state the
// program analyzers share.
type Program struct {
	Fset *token.FileSet
	// Pkgs is sorted by import path.
	Pkgs []*Package

	graph *CallGraph
}

// NewProgram assembles a Program from loaded packages. All packages must
// share one *token.FileSet (Load and the fixture loader guarantee this).
func NewProgram(pkgs []*Package) *Program {
	sorted := append([]*Package(nil), pkgs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Path < sorted[j].Path })
	var fset *token.FileSet
	if len(sorted) > 0 {
		fset = sorted[0].Fset
	}
	return &Program{Fset: fset, Pkgs: sorted}
}

// Graph returns the program's call graph, building it on first use.
func (prog *Program) Graph() *CallGraph {
	if prog.graph == nil {
		prog.graph = BuildCallGraph(prog)
	}
	return prog.graph
}

// Package returns the loaded package with the given import path, or nil.
func (prog *Program) Package(path string) *Package {
	for _, p := range prog.Pkgs {
		if p.Path == path {
			return p
		}
	}
	return nil
}

// Pass carries the whole program through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Prog     *Program
	Graph    *CallGraph

	diags *[]Diagnostic
	sup   *suppressions
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Prog.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// UseAllow marks the pass's own //lint:allow directive covering pos as used.
// It is for analyzers that read a directive as an annotation rather than a
// suppression (hotalloc's function-level cold boundary), so the
// stale-suppression report does not flag a directive that did its job.
func (p *Pass) UseAllow(pos token.Pos) {
	p.sup.suppressed(Diagnostic{Analyzer: p.Analyzer.Name, Pos: p.Prog.Fset.Position(pos)})
}

// IsTestFile reports whether pos lies in a test file of any program package.
// The analyzers enforce invariants on simulator code only; tests may consult
// the wall clock or spin goroutines to exercise the engine from outside. A
// position counts as test code by its *_test.go filename, by landing in a
// parsed TestFiles entry, or by landing in a type-checked file whose package
// clause names an external test package (package foo_test) — fixture trees
// and generated files don't always follow the filename convention.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	if strings.HasSuffix(p.Prog.Fset.Position(pos).Filename, "_test.go") {
		return true
	}
	for _, pkg := range p.Prog.Pkgs {
		for _, f := range pkg.TestFiles {
			if f.FileStart <= pos && pos < f.FileEnd {
				return true
			}
		}
		for _, f := range pkg.Files {
			if f.FileStart <= pos && pos < f.FileEnd {
				return strings.HasSuffix(f.Name.Name, "_test")
			}
		}
	}
	return false
}

// RunSuite applies the analyzers to the program and returns the surviving
// findings sorted by position, plus one wall-clock timing row per analyzer,
// in suite order, for the versioned report. One merged suppression index
// spans every file (sources and test files of every package); because it is
// keyed by the file's full path as recorded in the FileSet, a //lint:allow in
// pkg/a/util.go can never mask a finding in pkg/b/util.go. Every //lint:allow
// naming one of the analyzers that suppressed nothing comes back as an
// "unused-allow" finding; allows for analyzers outside the list are skipped.
// Suppressed findings do not count toward a timing row's finding total.
func RunSuite(prog *Program, analyzers []*Analyzer) ([]Diagnostic, []AnalyzerTiming, error) {
	var all []*ast.File
	for _, pkg := range prog.Pkgs {
		all = append(all, pkg.Files...)
		all = append(all, pkg.TestFiles...)
	}
	sup, bad := buildSuppressions(prog.Fset, all)
	diags := bad
	timings := make([]AnalyzerTiming, 0, len(analyzers))
	ran := make(map[string]bool, len(analyzers))
	graph := prog.Graph() // shared by every analyzer, so built outside the timing rows

	for _, a := range analyzers {
		start := time.Now() //lint:allow determinism(wall-clock timing rows measure the analyzers, not the simulation)
		var out []Diagnostic
		pass := &Pass{Analyzer: a, Prog: prog, Graph: graph, diags: &out, sup: sup}
		if err := a.Run(pass); err != nil {
			return nil, nil, fmt.Errorf("%s: %v", a.Name, err)
		}
		kept := 0
		for _, d := range out {
			if !sup.suppressed(d) {
				diags = append(diags, d)
				kept++
			}
		}
		timings = append(timings, AnalyzerTiming{
			Analyzer: a.Name,
			Millis:   time.Since(start).Milliseconds(), //lint:allow determinism(wall-clock timing rows measure the analyzers, not the simulation)
			Findings: kept,
		})
		ran[a.Name] = true
	}
	diags = append(diags, sup.unused(ran)...)
	sortDiagnostics(diags)
	return diags, timings, nil
}

func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Message < diags[j].Message
	})
}

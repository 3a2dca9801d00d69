package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func mustParse(t *testing.T, fset *token.FileSet, name, src string) *ast.File {
	t.Helper()
	f, err := parser.ParseFile(fset, name, src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parsing %s: %v", name, err)
	}
	return f
}

// TestPassIsTestFile pins down all three ways a file's own name or package
// clause can make it a test file: the *_test.go filename, a package clause
// naming an external test package (package foo_test — fixture trees and
// generated files don't always follow the filename convention), and plain
// package files, which must stay non-test.
func TestPassIsTestFile(t *testing.T) {
	fset := token.NewFileSet()
	regular := mustParse(t, fset, "a/regular.go", "package foo\n")
	external := mustParse(t, fset, "a/external.go", "package foo_test\n")
	named := mustParse(t, fset, "a/x_test.go", "package foo\n")
	pkg := &Package{Path: "a", Fset: fset, Files: []*ast.File{regular, external, named}}
	pass := &Pass{Prog: NewProgram([]*Package{pkg})}

	if pass.IsTestFile(regular.Name.Pos()) {
		t.Errorf("regular.go (package foo) classified as a test file")
	}
	if !pass.IsTestFile(external.Name.Pos()) {
		t.Errorf("external.go (package foo_test) not classified as a test file: the package-clause check is broken")
	}
	if !pass.IsTestFile(named.Name.Pos()) {
		t.Errorf("x_test.go not classified as a test file by filename")
	}
}

// TestProgramPassIsTestFile covers the program-level lookup: positions in
// external-test-package Files of any program package must classify as test
// positions; ordinary package files must not, whichever package they belong
// to.
func TestProgramPassIsTestFile(t *testing.T) {
	fset := token.NewFileSet()
	other := mustParse(t, fset, "a/other.go", "package foo\n")
	regular := mustParse(t, fset, "b/regular.go", "package bar\n")
	external := mustParse(t, fset, "b/external.go", "package bar_test\n")
	pkgA := &Package{Path: "a", Fset: fset, Files: []*ast.File{other}}
	pkgB := &Package{Path: "b", Fset: fset, Files: []*ast.File{regular, external}}
	pass := &Pass{Prog: NewProgram([]*Package{pkgA, pkgB})}

	if pass.IsTestFile(other.Name.Pos()) {
		t.Errorf("other.go (package foo) classified as a test file")
	}
	if pass.IsTestFile(regular.Name.Pos()) {
		t.Errorf("regular.go classified as a test file")
	}
	if !pass.IsTestFile(external.Name.Pos()) {
		t.Errorf("external.go (package bar_test) not classified as a test file")
	}
}

// TestDirectives pins the one //lint: grammar every analyzer reads: each
// kind, an empty reason, an allow without its analyzer(reason) (ignored),
// a field's line comment, and plain comments that are not directives. It
// then checks what Annotated reads of it: function doc comments and struct
// field doc and line comments, never a parameter's comment.
func TestDirectives(t *testing.T) {
	const src = `package p

//lint:allow hotalloc(cold path)
//lint:sanitizer guesttaint(checks the range)
//lint:source guesttaint( spaced reason )
//lint:converter unitflow(cycles to time)
//lint:hotpath
//lint:allow determinism()
//lint:allow determinism
// lint:allow  spaced-name (reason)
// A plain comment that mentions lint:allow x(y).
//lintallow x(y)
func f(
	n int, //lint:source guesttaint(parameters are not read)
) {
}

type T struct {
	//lint:source guesttaint(doc comment)
	a int
	b int //lint:source guesttaint(line comment)
	c int //lint:source guesttaint()
	d int // lint is a plain word here
}
`
	file := filepath.Join(t.TempDir(), "p.go")
	if err := os.WriteFile(file, []byte(src), 0o666); err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	pkg, err := Check(fset, nil, "p", filepath.Dir(file), []string{file})
	if err != nil {
		t.Fatal(err)
	}
	type dir struct {
		line                   int
		kind, analyzer, reason string
	}
	want := []dir{
		{3, "allow", "hotalloc", "cold path"},
		{4, "sanitizer", "guesttaint", "checks the range"},
		{5, "source", "guesttaint", "spaced reason"},
		{6, "converter", "unitflow", "cycles to time"},
		{7, "hotpath", "", ""},
		{8, "allow", "determinism", ""},
		{10, "allow", "spaced-name", "reason"},
		{14, "source", "guesttaint", "parameters are not read"},
		{19, "source", "guesttaint", "doc comment"},
		{21, "source", "guesttaint", "line comment"},
		{22, "source", "guesttaint", ""},
	}
	var got []dir
	for _, d := range Directives(pkg.Files[0].Comments...) {
		got = append(got, dir{fset.Position(d.Pos).Line, d.Kind, d.Analyzer, d.Reason})
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Directives:\ngot  %v\nwant %v", got, want)
	}

	prog := NewProgram([]*Package{pkg})
	annotated := func(kind, analyzer string) (map[string]string, []int) {
		var reported []int
		out := map[string]string{}
		for obj, reason := range Annotated(prog, kind, analyzer, func(pos token.Pos, msg string) {
			reported = append(reported, fset.Position(pos).Line)
		}) {
			out[obj.Name()] = reason
		}
		return out, reported
	}
	sources, reported := annotated("source", "guesttaint")
	if want := map[string]string{"f": "spaced reason", "a": "doc comment", "b": "line comment"}; !reflect.DeepEqual(sources, want) {
		t.Errorf("Annotated(source, guesttaint) = %v, want %v", sources, want)
	}
	if !reflect.DeepEqual(reported, []int{22}) {
		t.Errorf("empty-reason reports on lines %v, want [22]", reported)
	}
	if sanitizers, _ := annotated("sanitizer", "guesttaint"); !reflect.DeepEqual(sanitizers, map[string]string{"f": "checks the range"}) {
		t.Errorf("Annotated(sanitizer, guesttaint) = %v", sanitizers)
	}
}

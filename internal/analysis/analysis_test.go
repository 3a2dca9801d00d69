package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
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

// TestProgramPassIsTestFile covers the program-level lookups: positions in a
// package's parse-only TestFiles and in external-test-package Files of any
// program package must classify as test positions; ordinary package files
// must not, whichever package they belong to.
func TestProgramPassIsTestFile(t *testing.T) {
	fset := token.NewFileSet()
	other := mustParse(t, fset, "a/other.go", "package foo\n")
	regular := mustParse(t, fset, "b/regular.go", "package bar\n")
	external := mustParse(t, fset, "b/external.go", "package bar_test\n")
	arming := mustParse(t, fset, "b/arming.go", "package bar\n") // lives in TestFiles
	pkgA := &Package{Path: "a", Fset: fset, Files: []*ast.File{other}}
	pkgB := &Package{
		Path:      "b",
		Fset:      fset,
		Files:     []*ast.File{regular, external},
		TestFiles: []*ast.File{arming},
	}
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
	if !pass.IsTestFile(arming.Name.Pos()) {
		t.Errorf("TestFiles member not classified as a test file")
	}
}

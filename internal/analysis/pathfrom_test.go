package analysis_test

import (
	"go/token"
	"os"
	"path/filepath"
	"testing"

	"vread/internal/analysis"
)

// witnessProgram type-checks one self-contained package from source and
// returns its Program. The source has no imports, so no importer is needed.
func witnessProgram(t *testing.T, src string) *analysis.Program {
	t.Helper()
	dir := t.TempDir()
	file := filepath.Join(dir, "witfix.go")
	if err := os.WriteFile(file, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	pkg, err := analysis.Check(fset, nil, "witfix", dir, []string{file})
	if err != nil {
		t.Fatal(err)
	}
	return analysis.NewProgram([]*analysis.Package{pkg})
}

const witnessSrc = `package witfix

type handler interface{ Handle(s string) }

type alpha struct{}

func (alpha) Handle(s string) { leaf(s) }

type beta struct{}

func (*beta) Handle(s string) {}

func leaf(s string) {}

func dispatch(h handler, s string) { h.Handle(s) }

func root() {
	dispatch(alpha{}, "x")
	func() {
		func() { leaf("y") }()
	}()
}
`

// TestPathFromInterfaceWitness checks the witness shape through an interface
// fan-out: the chain from root to a concrete method goes through the
// dispatching function, and PathString renders it in caller→callee order.
func TestPathFromInterfaceWitness(t *testing.T) {
	g := witnessProgram(t, witnessSrc).Graph()
	root := g.Lookup("witfix.root")
	if root == nil {
		t.Fatal("no node for witfix.root")
	}
	tree := g.ReachableFrom([]*analysis.FuncNode{root}, nil)

	for _, target := range []string{"(witfix.alpha).Handle", "(witfix.beta).Handle"} {
		n := g.Lookup(target)
		if n == nil {
			t.Fatalf("no node for %s", target)
		}
		path := analysis.PathFrom(tree, n)
		if path == nil {
			t.Fatalf("%s not reachable from root through the interface fan-out", target)
		}
		want := "witfix.root → witfix.dispatch → " + target
		if got := analysis.PathString(path); got != want {
			t.Errorf("witness for %s = %q, want %q", target, got, want)
		}
	}

	// The concrete method's body keeps the chain going: leaf is reachable
	// and its witness passes through the fan-out edge.
	leaf := g.Lookup("witfix.leaf")
	path := analysis.PathFrom(tree, leaf)
	if path == nil {
		t.Fatal("witfix.leaf not reachable from root")
	}
	if got, want := analysis.PathString(path), "witfix.root → witfix.dispatch → (witfix.alpha).Handle → witfix.leaf"; got != want {
		t.Errorf("leaf witness = %q, want %q", got, want)
	}
}

// TestPathFromClosureWitness checks the parent$N naming in witnesses:
// literals are numbered in source order under their parent, nested literals
// extend the name, and PathFrom walks through them like any other node.
func TestPathFromClosureWitness(t *testing.T) {
	g := witnessProgram(t, witnessSrc).Graph()
	root := g.Lookup("witfix.root")
	if root == nil {
		t.Fatal("no node for witfix.root")
	}
	outer := g.Lookup("witfix.root$1")
	nested := g.Lookup("witfix.root$1$1")
	if outer == nil || nested == nil {
		t.Fatalf("closure nodes missing: outer=%v nested=%v", outer, nested)
	}
	tree := g.ReachableFrom([]*analysis.FuncNode{root}, nil)
	path := analysis.PathFrom(tree, nested)
	if path == nil {
		t.Fatal("nested closure not reachable from root")
	}
	if got, want := analysis.PathString(path), "witfix.root → witfix.root$1 → witfix.root$1$1"; got != want {
		t.Errorf("closure witness = %q, want %q", got, want)
	}

	// A node outside the tree yields a nil path, not a partial one.
	if p := analysis.PathFrom(g.ReachableFrom([]*analysis.FuncNode{outer}, nil), root); p != nil {
		t.Errorf("PathFrom returned %q for an unreachable node, want nil", analysis.PathString(p))
	}
}

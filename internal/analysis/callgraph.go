package analysis

// The interprocedural layer: a deterministic cross-package call graph over
// one loaded Program, shared by the analyzers through Pass.Graph. Its nodes
// are also the suite's one index of function bodies: analyzers that check
// each body on its own (determinism, tracecharge) walk Graph.Nodes.
//
// Construction is purely static, with two edge sources:
//
//   - direct calls and method calls resolve through the type checker
//     (generic instantiations collapse onto their origin declaration);
//   - a call through an interface method fans out to every method in the
//     program whose receiver type implements the interface (static method-set
//     check, no pointer analysis).
//
// A call through a function value (a parameter, field, variable or call
// result) has no edge: its callee is whatever some caller stored, so a
// callback that runs on a hot path carries its own //lint:hotpath (DESIGN.md
// §10). The dataflow layer treats the same calls as opaque, so one rule
// serves both. A function literal is its own node, with an edge from its
// enclosing function at its definition site (defining a closure on a path is
// treated as calling it).
//
// Everything is sorted — nodes by name, callees by name, edges by
// (caller, callee) — so traversals and diagnostics replay byte-identically
// for the same source tree.

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// FuncNode is one function in the call graph: a declared function or method,
// or a function literal.
type FuncNode struct {
	// Name is the node's unique, stable identifier:
	//
	//	pkg/path.Func             top-level function
	//	(pkg/path.Type).Method    method (pointer receivers unstarred)
	//	<parent>$N                Nth function literal inside <parent>
	Name string
	// Obj is the declared function object (generic origin for instantiated
	// calls); nil for literals.
	Obj *types.Func
	// Pkg is the package the node's body lives in.
	Pkg *Package
	// Decl is the declaration (nil for literals).
	Decl *ast.FuncDecl
	// Lit is the literal (nil for declarations).
	Lit *ast.FuncLit
	// Body is the function body; never nil for graph nodes.
	Body *ast.BlockStmt
}

// CallGraph is the program's static call graph.
type CallGraph struct {
	// Nodes holds every function in the program, sorted by Name.
	Nodes []*FuncNode

	byName  map[string]*FuncNode
	byObj   map[*types.Func]*FuncNode
	callees map[*FuncNode][]*FuncNode // sorted by Name, deduplicated
}

// NodeOf returns the node for a declared function object (resolving generic
// instantiations to their origin), or nil for functions outside the program.
// The loader type-checks each package from source but resolves its imports
// from export data, so a cross-package callee arrives as a different
// *types.Func than the one its home package defined — the stable node name
// bridges the two object worlds when the pointer lookup misses.
func (g *CallGraph) NodeOf(fn *types.Func) *FuncNode {
	if fn == nil {
		return nil
	}
	fn = fn.Origin()
	if n := g.byObj[fn]; n != nil {
		return n
	}
	return g.byName[funcName(fn)]
}

// ReachableFrom walks the graph breadth-first from the roots, never entering
// a callee that skip (when non-nil) rejects, and returns the BFS tree as a
// node→parent map (roots map to themselves). The map doubles as the
// reachable set and, through PathFrom, as the deterministic
// shortest-call-chain witness for diagnostics. Traversal order is
// deterministic: roots in argument order, callees in name order.
func (g *CallGraph) ReachableFrom(roots []*FuncNode, skip func(*FuncNode) bool) map[*FuncNode]*FuncNode {
	parent := make(map[*FuncNode]*FuncNode)
	var queue []*FuncNode
	for _, r := range roots {
		if r == nil {
			continue
		}
		if _, ok := parent[r]; !ok {
			parent[r] = r
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, c := range g.callees[n] {
			if skip != nil && skip(c) {
				continue
			}
			if _, ok := parent[c]; !ok {
				parent[c] = n
				queue = append(queue, c)
			}
		}
	}
	return parent
}

// PathFrom reconstructs the call chain root→…→n from a ReachableFrom tree.
// It returns nil when n is not reachable.
func PathFrom(tree map[*FuncNode]*FuncNode, n *FuncNode) []*FuncNode {
	if _, ok := tree[n]; !ok {
		return nil
	}
	var rev []*FuncNode
	for {
		rev = append(rev, n)
		p := tree[n]
		if p == n {
			break
		}
		n = p
	}
	out := make([]*FuncNode, len(rev))
	for i, v := range rev {
		out[len(rev)-1-i] = v
	}
	return out
}

// PathString renders a call chain as "a → b → c".
func PathString(path []*FuncNode) string {
	names := make([]string, len(path))
	for i, n := range path {
		names[i] = n.Name
	}
	return strings.Join(names, " → ")
}

// ---------------------------------------------------------------------------
// Construction.

// BuildCallGraph builds the deterministic static call graph over the
// program's packages.
func BuildCallGraph(prog *Program) *CallGraph {
	g := &CallGraph{
		byName:  make(map[string]*FuncNode),
		byObj:   make(map[*types.Func]*FuncNode),
		callees: make(map[*FuncNode][]*FuncNode),
	}
	b := &graphBuilder{
		g:        g,
		litNode:  make(map[*ast.FuncLit]*FuncNode),
		methods:  make(map[string][]*FuncNode),
		edgeSeen: make(map[[2]*FuncNode]bool),
	}

	// Pass 1: nodes — declared functions first (so literal ordinals can hang
	// off their enclosing declaration), then literals in source order — and
	// the program-wide method index the interface fan-out reads. prog.Pkgs
	// is sorted by path.
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				n := &FuncNode{Name: funcName(obj), Obj: obj, Pkg: pkg, Decl: fd, Body: fd.Body}
				g.byName[n.Name] = n
				g.byObj[obj] = n
				g.Nodes = append(g.Nodes, n)
				if fd.Recv != nil {
					b.methods[obj.Name()] = append(b.methods[obj.Name()], n)
				}
				b.addLiterals(pkg, n, fd.Body)
			}
		}
	}

	// Pass 2: edges.
	for _, n := range g.Nodes {
		b.addEdges(n)
	}

	sort.Slice(g.Nodes, func(i, j int) bool { return g.Nodes[i].Name < g.Nodes[j].Name })
	for _, list := range g.callees {
		sort.Slice(list, func(i, j int) bool { return list[i].Name < list[j].Name })
	}
	return g
}

type graphBuilder struct {
	g        *CallGraph
	litNode  map[*ast.FuncLit]*FuncNode
	methods  map[string][]*FuncNode // method name -> concrete method nodes
	edgeSeen map[[2]*FuncNode]bool
}

// addLiterals registers every function literal under parent as a node named
// parent$N, in source order, recursively.
func (b *graphBuilder) addLiterals(pkg *Package, parent *FuncNode, body *ast.BlockStmt) {
	ord := 0
	ast.Inspect(body, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		ord++
		ln := &FuncNode{Name: fmt.Sprintf("%s$%d", parent.Name, ord), Pkg: pkg, Lit: lit, Body: lit.Body}
		b.g.byName[ln.Name] = ln
		b.litNode[lit] = ln
		b.g.Nodes = append(b.g.Nodes, ln)
		b.addLiterals(pkg, ln, lit.Body)
		return false // nested literals handled by the recursive call
	})
}

func (b *graphBuilder) edge(from, to *FuncNode) {
	if from == nil || to == nil {
		return
	}
	key := [2]*FuncNode{from, to}
	if b.edgeSeen[key] {
		return
	}
	b.edgeSeen[key] = true
	b.g.callees[from] = append(b.g.callees[from], to)
}

// addEdges walks one node's body, stopping at nested literals (they are
// their own nodes and get a definition edge).
func (b *graphBuilder) addEdges(n *FuncNode) {
	pkg := n.Pkg
	ast.Inspect(n.Body, func(node ast.Node) bool {
		switch v := node.(type) {
		case *ast.FuncLit:
			b.edge(n, b.litNode[v])
			return false
		case *ast.CallExpr:
			b.callEdges(n, pkg, v)
		}
		return true
	})
}

// callEdges adds one call's edges: to the declared function or method it
// names, or to every implementation of the interface method it names. A
// call through a function value adds none, and an immediately invoked
// literal already has its definition edge.
func (b *graphBuilder) callEdges(caller *FuncNode, pkg *Package, call *ast.CallExpr) {
	var id *ast.Ident
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fn
	case *ast.SelectorExpr:
		id = fn.Sel
	default:
		return
	}
	obj, ok := pkg.TypesInfo.Uses[id].(*types.Func)
	if !ok {
		return // a builtin, a conversion, or a function value
	}
	if recv := obj.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
		b.interfaceEdges(caller, obj)
		return
	}
	b.edge(caller, b.g.NodeOf(obj))
}

// interfaceEdges fans an interface-method call out to every concrete method
// of that name in the program whose receiver implements the interface (a
// pointer receiver's method set includes its value receiver's).
func (b *graphBuilder) interfaceEdges(caller *FuncNode, iface *types.Func) {
	it := iface.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
	for _, m := range b.methods[iface.Name()] {
		rt := m.Obj.Type().(*types.Signature).Recv().Type()
		if _, isPtr := rt.(*types.Pointer); !isPtr {
			rt = types.NewPointer(rt)
		}
		if types.Implements(rt, it) {
			b.edge(caller, m)
		}
	}
}

// funcName builds the stable node name for a declared function or method.
func funcName(fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			obj := named.Obj()
			if obj.Pkg() != nil {
				return fmt.Sprintf("(%s.%s).%s", obj.Pkg().Path(), obj.Name(), fn.Name())
			}
			return fmt.Sprintf("(%s).%s", obj.Name(), fn.Name())
		}
		return fmt.Sprintf("(%s).%s", types.TypeString(t, nil), fn.Name())
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Path() + "." + fn.Name()
	}
	return fn.Name()
}

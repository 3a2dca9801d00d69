package analysis

// The interprocedural layer: a deterministic cross-package call graph over
// one loaded Program, shared by the interprocedural analyzers through
// Pass.Graph.
//
// Construction is purely static and intentionally approximate, in the
// conservative direction each client needs:
//
//   - direct calls and method calls resolve through the type checker
//     (generic instantiations collapse onto their origin declaration);
//   - a call through an interface method fans out to every method in the
//     program whose receiver type implements the interface (static method-set
//     check, no pointer analysis);
//   - a call through a function value fans out to every function or literal
//     in the *same package* whose value is taken somewhere and whose
//     signature matches — the per-package approximation documented in
//     DESIGN.md §10;
//   - a function literal gets an edge from its enclosing function at its
//     definition site (defining a closure on a path is treated as calling
//     it), and is its own node so facts propagate into its body.
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

// Lookup returns the node with the given stable name, or nil.
func (g *CallGraph) Lookup(name string) *FuncNode { return g.byName[name] }

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

// Callees returns n's direct callees, sorted by name.
func (g *CallGraph) Callees(n *FuncNode) []*FuncNode { return g.callees[n] }

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
		g:         g,
		litNode:   make(map[*ast.FuncLit]*FuncNode),
		valueRefs: make(map[*Package][]*FuncNode),
		methods:   make(map[string][]*FuncNode),
		edgeSeen:  make(map[[2]*FuncNode]bool),
	}

	pkgs := append([]*Package(nil), prog.Pkgs...)
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })

	// Pass 1: nodes — declared functions first (so literal ordinals can hang
	// off their enclosing declaration), then literals in source order.
	for _, pkg := range pkgs {
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
				b.addLiterals(pkg, n, fd.Body)
			}
		}
	}

	// Pass 2: per-package value-referenced functions (indirect-call fan-out
	// candidates) and the program-wide method index (interface fan-out).
	for _, pkg := range pkgs {
		b.collectValueRefs(pkg)
	}
	for _, n := range g.Nodes {
		if n.Obj != nil {
			if sig, ok := n.Obj.Type().(*types.Signature); ok && sig.Recv() != nil {
				b.methods[n.Obj.Name()] = append(b.methods[n.Obj.Name()], n)
			}
		}
	}

	// Pass 3: edges.
	for _, n := range append([]*FuncNode(nil), g.Nodes...) {
		b.addEdges(n)
	}

	sort.Slice(g.Nodes, func(i, j int) bool { return g.Nodes[i].Name < g.Nodes[j].Name })
	for _, list := range g.callees {
		sort.Slice(list, func(i, j int) bool { return list[i].Name < list[j].Name })
	}
	return g
}

type graphBuilder struct {
	g         *CallGraph
	litNode   map[*ast.FuncLit]*FuncNode
	valueRefs map[*Package][]*FuncNode // address-taken funcs/literals, per package
	methods   map[string][]*FuncNode   // method name -> concrete method nodes
	edgeSeen  map[[2]*FuncNode]bool
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

// collectValueRefs records functions whose value escapes into a variable,
// field, argument, or return — the candidate targets of indirect calls in
// the same package — plus every literal that is not immediately invoked.
func (b *graphBuilder) collectValueRefs(pkg *Package) {
	callPos := make(map[ast.Expr]bool)
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				callPos[ast.Unparen(call.Fun)] = true
			}
			return true
		})
	}
	seen := make(map[*FuncNode]bool)
	add := func(n *FuncNode) {
		if n != nil && !seen[n] {
			seen[n] = true
			b.valueRefs[pkg] = append(b.valueRefs[pkg], n)
		}
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.Ident:
				if fn, ok := pkg.TypesInfo.Uses[v].(*types.Func); ok && !callPos[ast.Expr(v)] {
					add(b.g.NodeOf(fn))
				}
			case *ast.SelectorExpr:
				if fn, ok := pkg.TypesInfo.Uses[v.Sel].(*types.Func); ok && !callPos[ast.Expr(v)] {
					add(b.g.NodeOf(fn))
				}
			case *ast.FuncLit:
				if !callPos[ast.Expr(v)] {
					add(b.litNode[v])
				}
			}
			return true
		})
	}
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

func (b *graphBuilder) callEdges(caller *FuncNode, pkg *Package, call *ast.CallExpr) {
	fun := ast.Unparen(call.Fun)
	switch fn := fun.(type) {
	case *ast.Ident:
		switch obj := pkg.TypesInfo.Uses[fn].(type) {
		case *types.Func:
			b.edge(caller, b.g.NodeOf(obj))
			return
		case *types.Var:
			b.indirectEdges(caller, pkg, obj.Type())
			return
		case *types.Builtin, *types.TypeName:
			return
		}
	case *ast.SelectorExpr:
		if obj, ok := pkg.TypesInfo.Uses[fn.Sel].(*types.Func); ok {
			sig, _ := obj.Type().(*types.Signature)
			if sig != nil && sig.Recv() != nil {
				if _, isIface := sig.Recv().Type().Underlying().(*types.Interface); isIface {
					b.interfaceEdges(caller, obj)
					return
				}
			}
			b.edge(caller, b.g.NodeOf(obj))
			return
		}
		if obj, ok := pkg.TypesInfo.Uses[fn.Sel].(*types.Var); ok {
			// Function-typed field or package-level variable.
			b.indirectEdges(caller, pkg, obj.Type())
			return
		}
	case *ast.FuncLit:
		b.edge(caller, b.litNode[fn])
		return
	}
	// Anything else with function type (index expressions, call results,
	// conversions applied then called) is an indirect call too.
	if t := pkg.TypesInfo.TypeOf(call.Fun); t != nil {
		if _, ok := t.Underlying().(*types.Signature); ok {
			b.indirectEdges(caller, pkg, t)
		}
	}
}

// interfaceEdges fans an interface-method call out to every concrete method
// in the program whose receiver implements the interface.
func (b *graphBuilder) interfaceEdges(caller *FuncNode, iface *types.Func) {
	recvT := iface.Type().(*types.Signature).Recv().Type()
	it, ok := recvT.Underlying().(*types.Interface)
	if !ok {
		return
	}
	for _, m := range b.methods[iface.Name()] {
		sig, _ := m.Obj.Type().(*types.Signature)
		if sig == nil || sig.Recv() == nil {
			continue
		}
		rt := sig.Recv().Type()
		if types.Implements(rt, it) {
			b.edge(caller, m)
			continue
		}
		if _, isPtr := rt.(*types.Pointer); !isPtr && types.Implements(types.NewPointer(rt), it) {
			b.edge(caller, m)
		}
	}
}

// indirectEdges approximates a call through a function value: every
// value-referenced function or literal in the same package with an identical
// signature is a candidate target.
func (b *graphBuilder) indirectEdges(caller *FuncNode, pkg *Package, t types.Type) {
	sig, ok := t.Underlying().(*types.Signature)
	if !ok {
		return
	}
	want := sigKey(sig)
	for _, cand := range b.valueRefs[pkg] {
		var cs *types.Signature
		if cand.Obj != nil {
			cs, _ = cand.Obj.Type().(*types.Signature)
		} else if lt := cand.Pkg.TypesInfo.TypeOf(cand.Lit); lt != nil {
			cs, _ = lt.Underlying().(*types.Signature)
		}
		if cs != nil && sigKey(cs) == want {
			b.edge(caller, cand)
		}
	}
}

// sigKey renders a signature's parameters and results (receiver excluded,
// so method values compare like plain functions) for matching.
func sigKey(sig *types.Signature) string {
	var b strings.Builder
	tuple := func(t *types.Tuple) {
		b.WriteByte('(')
		for i := 0; i < t.Len(); i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(types.TypeString(t.At(i).Type(), nil))
		}
		b.WriteByte(')')
	}
	tuple(sig.Params())
	tuple(sig.Results())
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
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

// Package hotalloc statically enforces the simulator's zero-alloc hot paths.
//
// A function annotated with a //lint:hotpath line in its doc comment is a hot
// seed: the engine's schedule/fire path, the virtio ring slot path, the trace
// span recorders. The hot fact propagates through the program call graph —
// direct calls, static method calls, and the per-package function-value
// fan-out — so a helper called from a hot path is held to the same standard.
// Inside every hot function the analyzer flags constructs that heap-allocate:
//
//   - make, new, and append (growth);
//   - &T{} composite-literal addresses and slice/map literals;
//   - function literals that capture variables (non-capturing literals are
//     static and free);
//   - interface boxing: a concrete, non-pointer-shaped value converted to an
//     interface at a call argument, assignment, return, or conversion;
//   - fmt calls and non-constant string concatenation.
//
// Two deliberate blind spots keep the check honest rather than noisy: the
// argument of panic is skipped (the unwinding path is not the hot path — this
// admits the panic(fmt.Sprintf(...)) idiom), and zero-size allocations
// (struct{}{}, empty literals) are ignored.
//
// Escape hatches, both requiring a written reason:
//
//	x := &thing{}        //lint:allow hotalloc(pool refill on cold start)
//
// suppresses one finding, while the same directive in a function's doc
// comment declares the whole function a cold boundary: propagation stops
// there and its body is not checked. Use the latter for macro-scale work
// reachable from, but not meaningfully part of, a hot path. A boundary no hot
// path reaches stops nothing, so the stale-suppression report flags it.
//
// Ground truth is testing.AllocsPerRun: TestScheduleZeroAlloc holds the
// schedule-fire cycle at 0 allocs/op, and this analyzer keeps it that way at
// build time.
package hotalloc

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"vread/internal/analysis"
)

// Analyzer flags heap allocations reachable from //lint:hotpath functions.
var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc:  "functions marked //lint:hotpath (and everything they call) must not heap-allocate",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	g := pass.Graph

	var seeds []*analysis.FuncNode
	boundary := map[*analysis.FuncNode]token.Pos{} // node -> its cold-boundary directive
	for _, n := range g.Nodes {
		if n.Decl == nil {
			continue
		}
		for _, d := range analysis.Directives(n.Decl.Doc) {
			switch {
			case d.Kind == "hotpath":
				seeds = append(seeds, n)
			case d.Kind == "allow" && d.Analyzer == "hotalloc":
				boundary[n] = d.Pos
			}
		}
	}

	// BFS from the seeds, never entering a cold boundary. A boundary the
	// search runs into has done its job, so its directive counts as used; one
	// no hot path reaches is reported stale like any other idle //lint:allow.
	// g.Nodes and each callee list are name-sorted, so the parent tree — and
	// with it every reported call chain — is deterministic.
	cold := func(n *analysis.FuncNode) bool {
		pos, ok := boundary[n]
		if ok {
			pass.UseAllow(pos)
		}
		return ok
	}
	var roots []*analysis.FuncNode
	for _, s := range seeds {
		if !cold(s) {
			roots = append(roots, s)
		}
	}
	parent := g.ReachableFrom(roots, cold)

	for _, n := range g.Nodes {
		if _, hot := parent[n]; hot {
			checkNode(pass, n, parent)
		}
	}
	return nil
}

// checkNode walks one hot function's body and reports allocating constructs.
func checkNode(pass *analysis.Pass, n *analysis.FuncNode, parent map[*analysis.FuncNode]*analysis.FuncNode) {
	chain := analysis.PathString(analysis.PathFrom(parent, n))
	info := n.Pkg.TypesInfo
	results := resultTuple(info, n)

	var concatLeft ast.Expr // left operand of the last concatenation seen
	var walk func(node ast.Node) bool
	walk = func(node ast.Node) bool {
		switch v := node.(type) {
		case *ast.FuncLit:
			if capt := captures(info, v); len(capt) > 0 {
				pass.Reportf(v.Pos(), "closure capturing %s allocates on hot path %s",
					strings.Join(capt, ", "), chain)
			}
			// The literal body is a call-graph node of its own; it is checked
			// separately when the definition edge makes it hot.
			return false
		case *ast.CallExpr:
			return checkCall(pass, info, v, chain)
		case *ast.UnaryExpr:
			if v.Op == token.AND {
				if cl, ok := ast.Unparen(v.X).(*ast.CompositeLit); ok && !zeroSize(info, cl) {
					pass.Reportf(v.Pos(), "&%s{...} escapes to the heap on hot path %s",
						typeName(info, cl), chain)
				}
			}
		case *ast.CompositeLit:
			if t := info.TypeOf(v); t != nil && len(v.Elts) > 0 {
				switch t.Underlying().(type) {
				case *types.Slice, *types.Map:
					pass.Reportf(v.Pos(), "%s literal allocates on hot path %s",
						typeName(info, v), chain)
				}
			}
		case *ast.BinaryExpr:
			if v.Op == token.ADD && isString(info.TypeOf(v)) && info.Types[v].Value == nil {
				// a+b+c nests a+b as its left operand, and the compiler
				// builds the whole chain in one concatenation: report it once.
				if v != concatLeft {
					pass.Reportf(v.Pos(), "string concatenation allocates on hot path %s", chain)
				}
				concatLeft = ast.Unparen(v.X)
			}
		case *ast.AssignStmt:
			for i := range v.Lhs {
				if i < len(v.Rhs) && len(v.Lhs) == len(v.Rhs) {
					if lt := info.TypeOf(v.Lhs[i]); isIface(lt) && boxes(info, v.Rhs[i]) {
						pass.Reportf(v.Rhs[i].Pos(), "assignment boxes %s into %s on hot path %s",
							typeString(info.TypeOf(v.Rhs[i])), typeString(lt), chain)
					}
				}
			}
		case *ast.ReturnStmt:
			if results != nil && len(v.Results) == results.Len() {
				for i, r := range v.Results {
					if rt := results.At(i).Type(); isIface(rt) && boxes(info, r) {
						pass.Reportf(r.Pos(), "return boxes %s into %s on hot path %s",
							typeString(info.TypeOf(r)), typeString(rt), chain)
					}
				}
			}
		}
		return true
	}
	ast.Inspect(n.Body, walk)
}

// checkCall handles the call-shaped allocation sources. The returned bool is
// the ast.Inspect recursion decision.
func checkCall(pass *analysis.Pass, info *types.Info, call *ast.CallExpr, chain string) bool {
	fun := ast.Unparen(call.Fun)

	// panic(...) arguments run only while unwinding; skip the whole subtree.
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "panic":
				return false
			case "make":
				pass.Reportf(call.Pos(), "make allocates on hot path %s", chain)
				return true
			case "new":
				pass.Reportf(call.Pos(), "new allocates on hot path %s", chain)
				return true
			case "append":
				pass.Reportf(call.Pos(), "append may grow its backing array on hot path %s", chain)
				return true
			}
		}
	}

	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if path, name, ok := analysis.PkgFunc(info, sel); ok && path == "fmt" {
			pass.Reportf(call.Pos(), "fmt.%s allocates on hot path %s", name, chain)
			return true // arguments are subsumed by the call finding
		}
	}

	// Conversion to an interface type.
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		if isIface(tv.Type) && len(call.Args) == 1 && boxes(info, call.Args[0]) {
			pass.Reportf(call.Pos(), "conversion boxes %s into %s on hot path %s",
				typeString(info.TypeOf(call.Args[0])), typeString(tv.Type), chain)
		}
		return true
	}

	// Interface-typed parameters box concrete arguments.
	sig, _ := underlyingSig(info.TypeOf(call.Fun))
	if sig == nil {
		return true
	}
	for i, arg := range call.Args {
		pt := paramType(sig, i, call.Ellipsis != token.NoPos)
		if isIface(pt) && boxes(info, arg) {
			pass.Reportf(arg.Pos(), "argument boxes %s into %s on hot path %s",
				typeString(info.TypeOf(arg)), typeString(pt), chain)
		}
	}
	return true
}

// paramType returns the type of parameter i, unrolling variadics (unless the
// call forwards a slice with ...).
func paramType(sig *types.Signature, i int, ellipsis bool) types.Type {
	np := sig.Params().Len()
	if sig.Variadic() && i >= np-1 {
		if ellipsis {
			return sig.Params().At(np - 1).Type()
		}
		if s, ok := sig.Params().At(np - 1).Type().(*types.Slice); ok {
			return s.Elem()
		}
	}
	if i < np {
		return sig.Params().At(i).Type()
	}
	return nil
}

func underlyingSig(t types.Type) (*types.Signature, bool) {
	if t == nil {
		return nil, false
	}
	sig, ok := t.Underlying().(*types.Signature)
	return sig, ok
}

// resultTuple returns the node's result types (nil when unknown).
func resultTuple(info *types.Info, n *analysis.FuncNode) *types.Tuple {
	if n.Obj != nil {
		if sig, ok := n.Obj.Type().(*types.Signature); ok {
			return sig.Results()
		}
	}
	if n.Lit != nil {
		if sig, ok := underlyingSig(info.TypeOf(n.Lit)); ok {
			return sig.Results()
		}
	}
	return nil
}

// isIface reports whether t's underlying type is a non-nil interface.
func isIface(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

// boxes reports whether storing e into an interface allocates: the static
// type is concrete and not pointer-shaped (pointers, maps, channels,
// functions, and unsafe.Pointer fit the interface word for free), and e is
// not the nil literal or a zero-size value.
func boxes(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	if t == nil || isIface(t) {
		return false
	}
	if b, ok := t.(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Chan, *types.Signature:
		return false
	case *types.Basic:
		if u.Kind() == types.UnsafePointer {
			return false
		}
	case *types.Struct:
		if u.NumFields() == 0 {
			return false
		}
	case *types.Array:
		if u.Len() == 0 {
			return false
		}
	}
	return true
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// zeroSize reports whether the composite literal builds a zero-size value
// (struct{}{} and friends): taking its address allocates nothing.
func zeroSize(info *types.Info, cl *ast.CompositeLit) bool {
	t := info.TypeOf(cl)
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		return u.NumFields() == 0
	case *types.Array:
		return u.Len() == 0
	}
	return false
}

// captures lists the variables a function literal closes over: identifiers
// resolving to non-field variables declared in an enclosing function scope
// (package-level variables are reached directly, not captured).
func captures(info *types.Info, lit *ast.FuncLit) []string {
	seen := map[*types.Var]bool{}
	var names []string
	ast.Inspect(lit.Body, func(nd ast.Node) bool {
		id, ok := nd.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() || seen[v] {
			return true
		}
		if v.Pos() >= lit.Pos() && v.Pos() < lit.End() {
			return true // local to the literal
		}
		if scope := v.Parent(); scope == nil || v.Pkg() == nil || scope == v.Pkg().Scope() {
			return true // field promoted through embedding, or package-level
		}
		seen[v] = true
		names = append(names, v.Name())
		return true
	})
	sort.Strings(names)
	return names
}

func typeName(info *types.Info, cl *ast.CompositeLit) string {
	if t := info.TypeOf(cl); t != nil {
		return typeString(t)
	}
	return "composite"
}

func typeString(t types.Type) string {
	if t == nil {
		return "?"
	}
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}

// Package guesttaint machine-checks the simulator's trust boundary: the
// guest↔daemon shared-memory ring. Every field annotated
//
//	//lint:source guesttaint(reason)
//
// holds guest-written descriptors; values popped off such a queue, or read
// from such a field of another type (a captured set), are hostile until
// they pass a function annotated
//
//	//lint:sanitizer guesttaint(reason)
//
// A declared sanitizer launders every argument it is passed and returns
// clean values, so both `req, ok := d.sanitize(req)` and the bool-guard
// `if !d.valid(req) { ... }` idioms work. Unlaundered guest values must not
// reach a slice/array/string index, a slice bound, a copy or make length, a
// map key (including delete), or a sim.Env schedule delay — the sinks where
// a hostile length or offset becomes an out-of-bounds access or a stalled
// event loop — nor be stored into host state outliving the event, where a
// later event handler uses it out of the dataflow's sight. Reports carry the
// pop site and, for flows through callees, the call-chain witness.
package guesttaint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"

	"vread/internal/analysis"
)

// Analyzer is the guest-taint invariant.
var Analyzer = &analysis.Analyzer{
	Name: "guesttaint",
	Doc:  "guest-written ring values must pass a declared //lint:sanitizer guesttaint function before index, copy-length, map-key, schedule-delay, and host-state field-store sinks",
	Run:  run,
}

const simPath = "vread/internal/sim"

// popMethods are the sim.Queue methods that hand a guest-written element to
// host-side code.
var popMethods = map[string]bool{"Get": true, "TryGet": true}

func run(pass *analysis.Pass) error {
	prog := pass.Prog
	badDirective := func(pos token.Pos, msg string) { pass.Reportf(pos, "%s", msg) }
	sanitizers := analysis.AnnotatedFuncs(prog, "sanitizer", "guesttaint", badDirective)
	sources := analysis.AnnotatedFields(prog, "source", "guesttaint", badDirective)

	analysis.RunDataflow(prog, pass.Graph, analysis.DataflowSpec{
		SourceFacts: func(pkg *analysis.Package, e ast.Expr) []analysis.Fact {
			switch x := e.(type) {
			case *ast.SelectorExpr:
				// A read of an annotated field holding descriptors; a queue
				// field's descriptors are hostile at the pop instead.
				if v, ok := pkg.TypesInfo.Uses[x.Sel].(*types.Var); ok && sources[v] != "" && !isQueue(v.Type()) {
					return []analysis.Fact{{Label: "guest", Pos: x.Pos()}}
				}
			case *ast.CallExpr:
				recvPath, recvType, name, sel, ok := analysis.CallMethod(pkg.TypesInfo, x)
				if ok && recvPath == simPath && recvType == "Queue" && popMethods[name] && refsSourceField(pkg, sel.X, sources) {
					return []analysis.Fact{{Label: "guest", Pos: x.Pos()}}
				}
			}
			return nil
		},
		IsSanitizer: func(fn *types.Func) bool {
			_, ok := sanitizers[fn.Origin()]
			return ok
		},
		ExprSink: exprSinks,
		CallSink: callSinks,
		// Host state outlives the event: a field reached through a pointer,
		// unless it is an annotated guest-written field (values stay hostile).
		FieldStore: func(pkg *analysis.Package, lhs *ast.SelectorExpr) string {
			if sel, ok := pkg.TypesInfo.Selections[lhs]; !ok || sources[sel.Obj().(*types.Var)] != "" {
				return ""
			}
			for x, ok := lhs, true; ok; x, ok = ast.Unparen(x.X).(*ast.SelectorExpr) {
				if sel, isField := pkg.TypesInfo.Selections[x]; isField && sel.Indirect() {
					return "field store"
				}
			}
			return ""
		},
		Report: func(fn *analysis.FuncNode, f analysis.Fact, hit analysis.SinkHit) {
			if f.Label != "guest" || pass.IsTestFile(hit.Pos) {
				return
			}
			src := prog.Fset.Position(f.Pos)
			msg := fmt.Sprintf("guest-controlled value (read from the ring at %s:%d) reaches %s %s without a declared sanitizer; validate it through a //lint:sanitizer guesttaint function",
				filepath.Base(src.Filename), src.Line, hit.Kind, hit.Detail)
			if len(hit.Chain) > 0 {
				msg += "; call chain: " + fn.Name + " → " + strings.Join(hit.Chain, " → ")
			}
			pass.Reportf(hit.Pos, "%s", msg)
		},
	})
	return nil
}

// isQueue reports whether t is a *sim.Queue.
func isQueue(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	return ok && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == simPath && named.Obj().Name() == "Queue"
}

// refsSourceField reports whether the receiver expression reads through an
// annotated guest-written field (d.ring.reqs → field reqs).
func refsSourceField(pkg *analysis.Package, e ast.Expr, sources map[*types.Var]string) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectorExpr:
			if v, ok := pkg.TypesInfo.Uses[x.Sel].(*types.Var); ok {
				if _, annotated := sources[v]; annotated {
					found = true
				}
			}
		case *ast.Ident:
			if v, ok := pkg.TypesInfo.Uses[x].(*types.Var); ok {
				if _, annotated := sources[v]; annotated {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// exprSinks declares the indexing sinks.
func exprSinks(pkg *analysis.Package, e ast.Expr) []analysis.Sink {
	switch x := e.(type) {
	case *ast.IndexExpr:
		// Skip generic instantiations (Queue[T]): the "index" is a type.
		if tv, ok := pkg.TypesInfo.Types[x.Index]; ok && tv.IsType() {
			return nil
		}
		t := pkg.TypesInfo.TypeOf(x.X)
		if t == nil {
			return nil
		}
		switch u := t.Underlying().(type) {
		case *types.Map:
			return []analysis.Sink{{Expr: x.Index, Kind: "map key", Detail: types.ExprString(x)}}
		case *types.Slice, *types.Array:
			return []analysis.Sink{{Expr: x.Index, Kind: "slice index", Detail: types.ExprString(x)}}
		case *types.Pointer:
			if _, isArr := u.Elem().Underlying().(*types.Array); isArr {
				return []analysis.Sink{{Expr: x.Index, Kind: "slice index", Detail: types.ExprString(x)}}
			}
		case *types.Basic:
			if u.Info()&types.IsString != 0 {
				return []analysis.Sink{{Expr: x.Index, Kind: "string index", Detail: types.ExprString(x)}}
			}
		}
	case *ast.SliceExpr:
		var out []analysis.Sink
		for _, bound := range []ast.Expr{x.Low, x.High, x.Max} {
			if bound != nil {
				out = append(out, analysis.Sink{Expr: bound, Kind: "slice bound", Detail: types.ExprString(x)})
			}
		}
		return out
	}
	return nil
}

// callSinks declares the copy/make/delete and schedule-delay sinks.
func callSinks(pkg *analysis.Package, call *ast.CallExpr) []analysis.Sink {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := pkg.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "copy":
				// The copied length is min(len(dst), len(src)): either slice
				// being guest-derived makes the copy guest-sized.
				var out []analysis.Sink
				for _, a := range call.Args {
					out = append(out, analysis.Sink{Expr: a, Kind: "copy length", Detail: types.ExprString(call)})
				}
				return out
			case "make":
				var out []analysis.Sink
				for _, a := range call.Args[1:] {
					out = append(out, analysis.Sink{Expr: a, Kind: "make size", Detail: types.ExprString(call)})
				}
				return out
			case "delete":
				if len(call.Args) == 2 {
					return []analysis.Sink{{Expr: call.Args[1], Kind: "map key", Detail: types.ExprString(call)}}
				}
			}
			return nil
		}
	}
	recvPath, recvType, name, _, ok := analysis.CallMethod(pkg.TypesInfo, call)
	if !ok || recvPath != simPath {
		return nil
	}
	sink := func(arg int) []analysis.Sink {
		if arg >= len(call.Args) {
			return nil
		}
		return []analysis.Sink{{Expr: call.Args[arg], Kind: "schedule delay", Detail: types.ExprString(call)}}
	}
	switch recvType + "." + name {
	case "Env.Schedule", "Env.RunFor", "Env.RunUntil", "Proc.Sleep":
		return sink(0)
	case "Queue.GetTimeoutThen":
		return sink(1)
	}
	return nil
}

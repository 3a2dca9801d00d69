// Package tracecharge verifies the trace-propagation invariants added with
// the per-request trace contexts:
//
//  1. Every span opened with trace.Trace.Begin is ended on all return paths
//     of the function that opened it (EndSpan, or a defer). A span left open
//     records End == -1 and enters the per-stage latency percentiles
//     (trace.Stages) as a silent zero-length sample — the reducer cannot
//     time what was never closed.
//  2. An exported function that accepts a *trace.Trace must actually use it
//     — pass it to a callee, charge cycles, open a span. Accepting and
//     dropping a trace context severs the request's observability spine for
//     every layer below.
package tracecharge

import (
	"go/ast"
	"go/types"

	"vread/internal/analysis"
)

// Analyzer is the trace-propagation checker.
var Analyzer = &analysis.Analyzer{
	Name: "tracecharge",
	Doc: "require Begin/EndSpan pairing on all paths and forbid dropped " +
		"*trace.Trace parameters (trace-propagation invariant)",
	Run: run,
}

// skipPkgs implement the trace/engine machinery itself.
var skipPkgs = map[string]bool{
	"vread/internal/trace": true,
	"vread/internal/sim":   true,
}

const tracePath = "vread/internal/trace"

func run(pass *analysis.Pass) error {
	for _, pkg := range pass.Prog.Pkgs {
		if skipPkgs[pkg.Path] {
			continue
		}
		for _, f := range pkg.Files {
			if !pass.IsTestFile(f.Pos()) {
				checkDroppedContexts(pass, pkg.TypesInfo, f)
			}
		}
	}
	// Every function body, literals included, is its own pairing root: a
	// literal's spans must not leak into its enclosing function's accounting.
	for _, n := range pass.Graph.Nodes {
		if !skipPkgs[n.Pkg.Path] && !pass.IsTestFile(n.Body.Pos()) {
			checkSpans(pass, n)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Part 1: Begin/EndSpan pairing.

// isTraceMethod reports whether call is (*trace.Trace).<name>.
func isTraceMethod(info *types.Info, call *ast.CallExpr, name string) bool {
	recvPath, recvType, method, _, ok := analysis.CallMethod(info, call)
	return ok && recvPath == tracePath && recvType == "Trace" && method == name
}

func checkSpans(pass *analysis.Pass, n *analysis.FuncNode) {
	info := n.Pkg.TypesInfo
	name := "func literal"
	if n.Decl != nil {
		name = n.Decl.Name.Name
	}
	hooks := analysis.FlowHooks{
		Classify: func(stmt ast.Stmt, isDefer bool, _ []analysis.Held) ([]analysis.Held, []interface{}) {
			if _, ok := stmt.(*ast.RangeStmt); ok {
				return nil, nil // spans are tracked in the body's statements
			}
			var acq []analysis.Held
			var rel []interface{}
			visit := func(n ast.Node, inDeferredLit bool) {
				switch v := n.(type) {
				case *ast.AssignStmt:
					if len(v.Lhs) != len(v.Rhs) {
						break
					}
					for i, rhs := range v.Rhs {
						call, ok := ast.Unparen(rhs).(*ast.CallExpr)
						if !ok || !isTraceMethod(info, call, "Begin") {
							continue
						}
						id, ok := v.Lhs[i].(*ast.Ident)
						if !ok || id.Name == "_" {
							pass.Reportf(call.Pos(), "span index from Begin is discarded, so the span can never be ended and its cycles vanish from the breakdowns (trace-propagation invariant)")
							continue
						}
						if obj := info.ObjectOf(id); obj != nil && !inDeferredLit {
							acq = append(acq, analysis.Held{Key: obj, Pos: call.Pos()})
						}
					}
				case *ast.ExprStmt:
					call, ok := ast.Unparen(v.X).(*ast.CallExpr)
					if ok && isTraceMethod(info, call, "Begin") {
						pass.Reportf(call.Pos(), "result of Begin is discarded, so the span can never be ended and its cycles vanish from the breakdowns (trace-propagation invariant)")
					}
				case *ast.CallExpr:
					if isTraceMethod(info, v, "EndSpan") && len(v.Args) > 0 {
						if id := analysis.RootIdent(v.Args[0]); id != nil {
							if obj := info.ObjectOf(id); obj != nil {
								rel = append(rel, interface{}(obj))
							}
						}
					} else {
						// A span index escaping into any other call (helper
						// that closes it, append into a batch) transfers
						// ownership; stop tracking it rather than guess.
						for _, k := range escapingSpanArgs(info, v) {
							rel = append(rel, k)
						}
					}
				}
			}
			captured := func(id *ast.Ident) {
				obj := info.ObjectOf(id)
				if obj == nil {
					return
				}
				if b, ok := obj.Type().(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
					rel = append(rel, interface{}(obj))
				}
			}
			walkStmt(stmt, isDefer, visit, captured)
			return acq, rel
		},
		AtExit: func(ret *ast.ReturnStmt, held []analysis.Held) {
			for _, h := range held {
				obj := h.Key.(types.Object)
				if ret != nil {
					// A span index returned to the caller transfers
					// ownership.
					if returnsObj(info, ret, obj) {
						continue
					}
					pass.Reportf(ret.Pos(), "span %q (opened at line %d) is not ended on this return path, so its stage is timed as zero (trace-propagation invariant: every Begin must reach EndSpan)",
						obj.Name(), pass.Prog.Fset.Position(h.Pos).Line)
					continue
				}
				pass.Reportf(h.Pos, "span %q is not ended before %s falls off the end, so its stage is timed as zero (trace-propagation invariant: every Begin must reach EndSpan)",
					obj.Name(), name)
			}
		},
	}
	analysis.WalkPaths(n.Body, hooks)
}

// escapingSpanArgs returns the objects of plain identifier arguments of
// integer type passed to non-EndSpan calls — potential span-index handoffs.
// Only identifiers already tracked will match in the held set; everything
// else is ignored by the walker.
func escapingSpanArgs(info *types.Info, call *ast.CallExpr) []interface{} {
	if isTraceMethod(info, call, "Annotate") {
		return nil // Annotate reads the index without closing the span
	}
	var out []interface{}
	for _, arg := range call.Args {
		if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
			if obj := info.ObjectOf(id); obj != nil {
				if b, ok := obj.Type().(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
					out = append(out, interface{}(obj))
				}
			}
		}
	}
	return out
}

func returnsObj(info *types.Info, ret *ast.ReturnStmt, obj types.Object) bool {
	for _, r := range ret.Results {
		if id, ok := ast.Unparen(r).(*ast.Ident); ok && info.ObjectOf(id) == obj {
			return true
		}
	}
	return false
}

// walkStmt visits nodes of stmt, handling nested function literals by
// ownership: a deferred closure runs at function exit, so its EndSpan calls
// are defer-releases; any other closure that captures a span variable (the
// async-completion idiom — EndSpan inside a Schedule or PostT callback)
// takes ownership of it, so the enclosing function stops tracking it.
func walkStmt(stmt ast.Stmt, isDefer bool, visit func(n ast.Node, inDeferredLit bool), captured func(id *ast.Ident)) {
	var lits []*ast.FuncLit
	ast.Inspect(stmt, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			lits = append(lits, lit)
			return false
		}
		visit(n, false)
		return true
	})
	for _, lit := range lits {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok && isDefer {
				return false
			}
			if isDefer {
				visit(n, true)
			} else if id, ok := n.(*ast.Ident); ok {
				// Captures anywhere under the literal count, including
				// inside further-nested completion callbacks.
				captured(id)
			}
			return true
		})
	}
}

// ---------------------------------------------------------------------------
// Part 2: dropped trace contexts.

// checkDroppedContexts flags exported functions that accept a named
// *trace.Trace parameter and never touch it. The entry points of the read
// path (core, hdfs, qfs, guest, virtio, netsim, storage) thread the request
// trace downward; a signature that accepts one and drops it silently
// truncates every breakdown below that layer.
func checkDroppedContexts(pass *analysis.Pass, info *types.Info, f *ast.File) {
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil || !fd.Name.IsExported() {
			continue
		}
		for _, field := range fd.Type.Params.List {
			if !isTracePtr(info, field.Type) {
				continue
			}
			for _, name := range field.Names {
				if name.Name == "_" {
					continue // explicitly discarded in the signature
				}
				obj := info.ObjectOf(name)
				if obj == nil || usesObj(info, fd.Body, obj) {
					continue
				}
				pass.Reportf(name.Pos(), "exported %s accepts trace context %q but never uses it: the request's spans and cycle charges are silently dropped below this layer (trace-propagation invariant); pass it to the callees or annotate why not",
					fd.Name.Name, name.Name)
			}
		}
	}
}

func isTracePtr(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == tracePath && named.Obj().Name() == "Trace"
}

func usesObj(info *types.Info, body *ast.BlockStmt, obj types.Object) bool {
	used := false
	ast.Inspect(body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.ObjectOf(id) == obj {
			used = true
		}
		return !used
	})
	return used
}

package analysis

// The dataflow layer: an SSA-lite def-use engine over the pairing walker and
// the call graph. Facts (analyzer-chosen labels: "guest", "cycles", "bytes")
// attach to values — a root variable plus an optional field path — and ride
// the walker's held set, so branch merging, loop unioning, and defer handling
// come for free: a value tainted on either arm of an if stays tainted after
// the merge, which is the conservative direction a taint analysis needs.
//
// The engine is interprocedural through memoized per-function summaries. A
// function's parameters enter with symbolic "param#i" facts; whatever those
// reach — results, declared sinks — is recorded once, and every call site
// replays the summary against the facts of its actual arguments, prepending
// the callee to the witness chain. Summaries are computed on demand in
// call-graph node-name order, so the whole analysis replays byte-identically.
//
// Precision contract (the conservative approximations, documented once):
//
//   - field-sensitivity is gen-only: `x := req.off` tracks {x} separately,
//     but overwriting req.off does not launder req — whole-value laundering
//     through a declared sanitizer is the blessed pattern;
//   - a declared sanitizer launders every argument it is passed and returns
//     clean results (so both `req, ok = san(req)` and the bool-guard
//     `if !valid(req) { return }` idioms work);
//   - indirect and interface calls return clean values and are not summary-
//     expanded (the call graph still fans them out for reachability clients);
//   - closures are their own nodes: facts do not flow through captures, but
//     sources *inside* a literal body are seen when that node is analyzed;
//   - recursion is cut by treating an in-progress callee as a no-op.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// ValueKey identifies one tracked value inside a function: a root variable
// plus an optional dot-joined field path ("" for the whole value).
type ValueKey struct {
	Root *types.Var
	Path string
}

// Fact is one dataflow fact: a label carried by a value, plus the origin the
// witness cites.
type Fact struct {
	Label string
	Pos   token.Pos
}

// factKey is the Held.Key identity: one (value, label) pair.
type factKey struct {
	val   ValueKey
	label string
}

// Sink is one place a labeled value must not reach, as declared by the
// analyzer's hooks: Expr is the operand whose facts matter.
type Sink struct {
	Expr   ast.Expr
	Kind   string
	Detail string
}

// SinkHit is one fact arriving at one sink. Chain lists the callees below
// the reporting function (empty for a hit in the function itself).
type SinkHit struct {
	Kind   string
	Detail string
	Pos    token.Pos
	Chain  []string
}

// Summary is the memoized interprocedural behavior of one function: which
// parameters flow to its results, which labels its own sources contribute to
// the results, and which sinks each parameter reaches.
type Summary struct {
	ParamToResult []bool
	ResultLabels  []string
	ParamSinks    [][]SinkHit
}

// DataflowSpec parameterizes one analyzer's run of the engine. Label values
// starting with "param#" are reserved for the engine's symbolic parameters.
type DataflowSpec struct {
	// SourceFacts returns the facts generated by evaluating e, or nil to let
	// the engine's structural rules decide. This is where atoms live: an
	// annotated ring pop, a *Cycles field read.
	SourceFacts func(pkg *Package, e ast.Expr) []Fact
	// IsSanitizer reports whether calls to fn launder their arguments and
	// return clean values.
	IsSanitizer func(fn *types.Func) bool
	// SkipBody reports whether a node's body is exempt from analysis and
	// summarization — declared converters whose insides are the one place
	// the raw arithmetic is allowed.
	SkipBody func(n *FuncNode) bool
	// ExprSink declares sinks on a non-call expression (index, slice,
	// conversion). Called once per expression node during the scan.
	ExprSink func(pkg *Package, e ast.Expr) []Sink
	// CallSink declares sinks on a call's operands (copy/make lengths,
	// duration parameters of time APIs).
	CallSink func(pkg *Package, call *ast.CallExpr) []Sink
	// FieldStore declares a sink on a store to field lhs (its kind, or "").
	// Facts lhs's base carries do not arrive: an object's own parts move nothing.
	FieldStore func(pkg *Package, lhs *ast.SelectorExpr) string
	// OnBinary, when set, is the unit algebra: it combines the operand
	// facts of a binary expression into the result's facts and, when the
	// combination itself is the defect, a non-empty violation message.
	// When nil the result carries the union of both sides.
	OnBinary func(pkg *Package, be *ast.BinaryExpr, x, y []Fact) (out []Fact, violation string)
	// Report receives every sink hit whose arriving fact has a real (non
	// param#) label. Position filtering (test files) is the client's job.
	Report func(fn *FuncNode, fact Fact, hit SinkHit)
}

// Dataflow runs one spec over a program.
type Dataflow struct {
	prog *Program
	g    *CallGraph
	spec DataflowSpec

	summaries map[*FuncNode]*Summary
	analyzing map[*FuncNode]bool
}

// RunDataflow analyzes every function in the program under the spec,
// reporting through spec.Report. Nodes are visited in name order.
func RunDataflow(prog *Program, g *CallGraph, spec DataflowSpec) {
	d := &Dataflow{
		prog:      prog,
		g:         g,
		spec:      spec,
		summaries: make(map[*FuncNode]*Summary),
		analyzing: make(map[*FuncNode]bool),
	}
	for _, n := range g.Nodes {
		d.summaryOf(n)
	}
}

// summaryOf returns n's summary, analyzing (and reporting from) its body on
// first use. Recursive cycles see an empty placeholder.
func (d *Dataflow) summaryOf(n *FuncNode) *Summary {
	if n == nil {
		return &Summary{}
	}
	if s, ok := d.summaries[n]; ok {
		return s
	}
	if d.analyzing[n] {
		return &Summary{}
	}
	if d.spec.SkipBody != nil && d.spec.SkipBody(n) {
		s := &Summary{}
		d.summaries[n] = s
		return s
	}
	d.analyzing[n] = true
	s := d.analyze(n)
	delete(d.analyzing, n)
	d.summaries[n] = s
	return s
}

// params returns the parameter variables of n in summary index order:
// receiver first when present, then declared parameters.
func nodeParams(n *FuncNode) []*types.Var {
	if n.Obj == nil {
		// Literal: resolve through the declared parameter names.
		var out []*types.Var
		if n.Lit.Type.Params != nil {
			for _, f := range n.Lit.Type.Params.List {
				for _, name := range f.Names {
					if v, ok := n.Pkg.TypesInfo.Defs[name].(*types.Var); ok {
						out = append(out, v)
					}
				}
			}
		}
		return out
	}
	sig, _ := n.Obj.Type().(*types.Signature)
	if sig == nil {
		return nil
	}
	var out []*types.Var
	if sig.Recv() != nil {
		out = append(out, sig.Recv())
	}
	for i := 0; i < sig.Params().Len(); i++ {
		out = append(out, sig.Params().At(i))
	}
	return out
}

// funcAnalysis is the per-function walk state.
type funcAnalysis struct {
	d      *Dataflow
	node   *FuncNode
	pkg    *Package
	sum    *Summary
	params map[*types.Var]int
	// reported dedups (sink pos, label, kind) within one function walk.
	reported map[string]bool
}

func (d *Dataflow) analyze(n *FuncNode) *Summary {
	params := nodeParams(n)
	fa := &funcAnalysis{
		d:        d,
		node:     n,
		pkg:      n.Pkg,
		sum:      &Summary{ParamToResult: make([]bool, len(params)), ParamSinks: make([][]SinkHit, len(params))},
		params:   make(map[*types.Var]int, len(params)),
		reported: make(map[string]bool),
	}
	var init []Held
	for i, v := range params {
		fa.params[v] = i
		init = append(init, Held{
			Key: factKey{val: ValueKey{Root: v}, label: fmt.Sprintf("param#%d", i)},
			Pos: v.Pos(),
		})
	}
	WalkPaths(n.Body, FlowHooks{
		Init: init,
		Classify: func(stmt ast.Stmt, isDefer bool, held []Held) ([]Held, []interface{}) {
			return fa.transfer(stmt, held)
		},
		Cond: func(e ast.Expr, held []Held) ([]Held, []interface{}) {
			view := viewOf(held)
			fa.scan(e, view)
			return nil, fa.sanitizerKills(e, view)
		},
		AtExit: func(ret *ast.ReturnStmt, held []Held) {
			if ret == nil {
				return
			}
			view := viewOf(held)
			for _, res := range ret.Results {
				fa.scan(res, view)
				for _, f := range fa.eval(res, view) {
					if i, ok := paramIndex(f.Label); ok {
						if i < len(fa.sum.ParamToResult) {
							fa.sum.ParamToResult[i] = true
						}
					} else {
						fa.sum.ResultLabels = addLabel(fa.sum.ResultLabels, f.Label)
					}
				}
			}
		},
	})
	return fa.sum
}

// view is the current fact state: ValueKey → facts.
type view map[ValueKey][]Fact

func viewOf(held []Held) view {
	v := make(view, len(held))
	for _, h := range held {
		k := h.Key.(factKey)
		v[k.val] = append(v[k.val], Fact{Label: k.label, Pos: h.Pos})
	}
	return v
}

func paramIndex(label string) (int, bool) {
	if !strings.HasPrefix(label, "param#") {
		return 0, false
	}
	var i int
	if _, err := fmt.Sscanf(label, "param#%d", &i); err != nil {
		return 0, false
	}
	return i, true
}

func addLabel(labels []string, l string) []string {
	for _, have := range labels {
		if have == l {
			return labels
		}
	}
	return append(labels, l)
}

// ---------------------------------------------------------------------------
// Transfer function: gen/kill per statement.

func (fa *funcAnalysis) transfer(stmt ast.Stmt, held []Held) (acq []Held, rel []interface{}) {
	v := viewOf(held)
	fa.scan(stmt, v)
	rel = fa.sanitizerKills(stmt, v)

	assignTo := func(lhs ast.Expr, facts []Fact) {
		fa.fieldStore(lhs, facts, v)
		key, ok := fa.keyOf(lhs)
		if !ok {
			return
		}
		rel = append(rel, fa.killsFor(key, held)...)
		for _, f := range facts {
			acq = append(acq, Held{Key: factKey{val: key, label: f.Label}, Pos: f.Pos})
		}
	}

	switch st := stmt.(type) {
	case *ast.AssignStmt:
		if len(st.Lhs) == len(st.Rhs) {
			for i, lhs := range st.Lhs {
				facts := fa.eval(st.Rhs[i], v)
				if st.Tok != token.ASSIGN && st.Tok != token.DEFINE {
					// Compound assignment: x op= y behaves like x = x op y.
					facts = fa.applyBinary(binOpOf(st.Tok), fa.eval(lhs, v), facts, st.Pos())
				}
				assignTo(lhs, facts)
			}
		} else if len(st.Rhs) == 1 {
			// Tuple assignment: every lhs receives the call's result facts.
			facts := fa.eval(st.Rhs[0], v)
			for _, lhs := range st.Lhs {
				assignTo(lhs, facts)
			}
		}
	case *ast.DeclStmt:
		gd, ok := st.Decl.(*ast.GenDecl)
		if !ok {
			return acq, rel
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, name := range vs.Names {
				var facts []Fact
				if len(vs.Values) == len(vs.Names) {
					facts = fa.eval(vs.Values[i], v)
				} else if len(vs.Values) == 1 {
					facts = fa.eval(vs.Values[0], v)
				}
				assignTo(name, facts)
			}
		}
	case *ast.RangeStmt:
		facts := fa.eval(st.X, v)
		if st.Key != nil {
			assignTo(st.Key, nil) // indices/keys are positional, not content
		}
		if st.Value != nil {
			assignTo(st.Value, facts)
		}
	}
	return acq, rel
}

// fieldStore delivers the facts assigned to lhs to the FieldStore sink.
func (fa *funcAnalysis) fieldStore(lhs ast.Expr, facts []Fact, v view) {
	sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
	if !ok || len(facts) == 0 || fa.d.spec.FieldStore == nil {
		return
	}
	if kind := fa.d.spec.FieldStore(fa.pkg, sel); kind != "" {
		base := fa.eval(sel.X, v)
		for _, f := range facts {
			if !slices.ContainsFunc(base, func(b Fact) bool { return b.Label == f.Label }) {
				fa.report(f, SinkHit{Kind: kind, Detail: types.ExprString(sel), Pos: sel.Pos()})
			}
		}
	}
}

// killsFor retires every held fact on key and its field extensions.
func (fa *funcAnalysis) killsFor(key ValueKey, held []Held) []interface{} {
	var out []interface{}
	prefix := key.Path + "."
	for _, h := range held {
		k := h.Key.(factKey)
		if k.val.Root != key.Root {
			continue
		}
		if k.val.Path == key.Path || (key.Path == "" && k.val.Path != "") ||
			(key.Path != "" && strings.HasPrefix(k.val.Path, prefix)) {
			out = append(out, h.Key)
		}
	}
	return out
}

// keyOf resolves an lvalue/rvalue to a trackable ValueKey: a root variable
// plus a pure field path. ok is false for anything with an index, call, or
// dereference in the middle.
func (fa *funcAnalysis) keyOf(e ast.Expr) (ValueKey, bool) {
	var path []string
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			obj := fa.pkg.TypesInfo.Uses[x]
			if obj == nil {
				obj = fa.pkg.TypesInfo.Defs[x]
			}
			v, ok := obj.(*types.Var)
			if !ok {
				return ValueKey{}, false
			}
			// Reverse the accumulated path.
			for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
				path[i], path[j] = path[j], path[i]
			}
			return ValueKey{Root: v, Path: strings.Join(path, ".")}, true
		case *ast.SelectorExpr:
			sel, ok := fa.pkg.TypesInfo.Selections[x]
			if !ok || sel.Kind() != types.FieldVal {
				return ValueKey{}, false
			}
			path = append(path, x.Sel.Name)
			e = x.X
		default:
			return ValueKey{}, false
		}
	}
}

// ---------------------------------------------------------------------------
// Expression evaluation: facts of an expression under the current view.

func (fa *funcAnalysis) eval(e ast.Expr, v view) []Fact {
	if e == nil {
		return nil
	}
	if fa.d.spec.SourceFacts != nil {
		if facts := fa.d.spec.SourceFacts(fa.pkg, e); facts != nil {
			return facts
		}
	}
	switch x := e.(type) {
	case *ast.Ident, *ast.SelectorExpr:
		if key, ok := fa.keyOf(e); ok {
			return fa.factsOf(key, v)
		}
		if sel, ok := x.(*ast.SelectorExpr); ok {
			return fa.eval(sel.X, v)
		}
		return nil
	case *ast.ParenExpr:
		return fa.eval(x.X, v)
	case *ast.StarExpr:
		return fa.eval(x.X, v)
	case *ast.UnaryExpr:
		return fa.eval(x.X, v)
	case *ast.BinaryExpr:
		out, _ := fa.combine(x, fa.eval(x.X, v), fa.eval(x.Y, v))
		return out
	case *ast.CallExpr:
		return fa.evalCall(x, v)
	case *ast.IndexExpr:
		// Element of a labeled container carries the container's facts; the
		// map key read does not taint the value (trusted values, hostile
		// key — the sink hooks judge the key itself).
		return fa.eval(x.X, v)
	case *ast.SliceExpr:
		return fa.eval(x.X, v)
	case *ast.TypeAssertExpr:
		return fa.eval(x.X, v)
	case *ast.CompositeLit:
		var out []Fact
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			out = append(out, fa.eval(el, v)...)
		}
		return dedupFacts(out)
	}
	return nil
}

// factsOf returns the facts on key, including whole-value facts on prefixes
// of its path ({req} taint extends to {req.off}).
func (fa *funcAnalysis) factsOf(key ValueKey, v view) []Fact {
	out := append([]Fact(nil), v[key]...)
	if key.Path != "" {
		parts := strings.Split(key.Path, ".")
		for i := 0; i < len(parts); i++ {
			prefix := ValueKey{Root: key.Root, Path: strings.Join(parts[:i], ".")}
			out = append(out, v[prefix]...)
		}
	}
	return dedupFacts(out)
}

func dedupFacts(facts []Fact) []Fact {
	if len(facts) < 2 {
		return facts
	}
	seen := make(map[string]bool, len(facts))
	out := facts[:0]
	for _, f := range facts {
		if !seen[f.Label] {
			seen[f.Label] = true
			out = append(out, f)
		}
	}
	return out
}

func (fa *funcAnalysis) combine(be *ast.BinaryExpr, x, y []Fact) ([]Fact, string) {
	if fa.d.spec.OnBinary != nil {
		return fa.d.spec.OnBinary(fa.pkg, be, x, y)
	}
	return dedupFacts(append(append([]Fact(nil), x...), y...)), ""
}

func (fa *funcAnalysis) applyBinary(op token.Token, x, y []Fact, pos token.Pos) []Fact {
	be := &ast.BinaryExpr{X: &ast.Ident{Name: "_", NamePos: pos}, Op: op, OpPos: pos, Y: &ast.Ident{Name: "_", NamePos: pos}}
	out, _ := fa.combine(be, x, y)
	return out
}

func binOpOf(assign token.Token) token.Token {
	switch assign {
	case token.ADD_ASSIGN:
		return token.ADD
	case token.SUB_ASSIGN:
		return token.SUB
	case token.MUL_ASSIGN:
		return token.MUL
	case token.QUO_ASSIGN:
		return token.QUO
	case token.REM_ASSIGN:
		return token.REM
	}
	return token.ADD
}

// evalCall computes a call's result facts: conversions and a few builtins
// pass facts through, sanitizers return clean, summarized callees replay
// their summary against the argument facts. Unknown callees return clean.
func (fa *funcAnalysis) evalCall(call *ast.CallExpr, v view) []Fact {
	// Type conversion: T(x) keeps x's facts — int64(n) does not launder.
	if len(call.Args) == 1 && fa.isConversion(call) {
		return fa.eval(call.Args[0], v)
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := fa.pkg.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "len", "cap", "append", "min", "max":
				var out []Fact
				for _, a := range call.Args {
					out = append(out, fa.eval(a, v)...)
				}
				return dedupFacts(out)
			}
			return nil
		}
	}
	callee := fa.calleeOf(call)
	if callee == nil {
		return nil
	}
	if fa.d.spec.IsSanitizer != nil && fa.d.spec.IsSanitizer(callee) {
		return nil
	}
	node := fa.d.g.NodeOf(callee)
	if node == nil {
		return nil
	}
	sum := fa.d.summaryOf(node)
	var out []Fact
	for _, l := range sum.ResultLabels {
		out = append(out, Fact{Label: l, Pos: call.Pos()})
	}
	for i := range sum.ParamToResult {
		if !sum.ParamToResult[i] {
			continue
		}
		if arg := fa.argExpr(call, callee, i); arg != nil {
			out = append(out, fa.eval(arg, v)...)
		}
	}
	return dedupFacts(out)
}

// calleeOf resolves a call to its static *types.Func, or nil.
func (fa *funcAnalysis) calleeOf(call *ast.CallExpr) *types.Func {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := fa.pkg.TypesInfo.Uses[fn].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := fa.pkg.TypesInfo.Uses[fn.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// isConversion reports whether call is a type conversion.
func (fa *funcAnalysis) isConversion(call *ast.CallExpr) bool {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		_, ok := fa.pkg.TypesInfo.Uses[fn].(*types.TypeName)
		return ok
	case *ast.SelectorExpr:
		_, ok := fa.pkg.TypesInfo.Uses[fn.Sel].(*types.TypeName)
		return ok
	case *ast.ArrayType, *ast.StarExpr, *ast.MapType, *ast.FuncType, *ast.InterfaceType, *ast.ChanType:
		return true
	}
	return false
}

// argExpr maps a summary parameter index to the call-site expression that
// feeds it: the receiver for index 0 of a method call, variadic arguments
// collapse onto the last parameter.
func (fa *funcAnalysis) argExpr(call *ast.CallExpr, callee *types.Func, idx int) ast.Expr {
	sig, _ := callee.Type().(*types.Signature)
	if sig == nil {
		return nil
	}
	if sig.Recv() != nil {
		if idx == 0 {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				return sel.X
			}
			return nil
		}
		idx--
	}
	if idx < len(call.Args) {
		return call.Args[idx]
	}
	if sig.Variadic() && len(call.Args) > 0 && idx == sig.Params().Len()-1 {
		return call.Args[len(call.Args)-1]
	}
	return nil
}

// ---------------------------------------------------------------------------
// Sink scanning and sanitizer kills.

// scan visits every expression of a statement or condition (function-literal
// bodies excluded — they are their own nodes) and applies the sink hooks,
// the unit algebra's violation reports, and callee-summary sink replay.
func (fa *funcAnalysis) scan(n ast.Node, v view) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.FuncLit:
			return false
		case *ast.BinaryExpr:
			if fa.d.spec.OnBinary != nil {
				_, violation := fa.combine(x, fa.eval(x.X, v), fa.eval(x.Y, v))
				if violation != "" {
					first := firstReal(append(fa.eval(x.X, v), fa.eval(x.Y, v)...))
					fa.report(first, SinkHit{Kind: "unit-mix", Detail: violation, Pos: x.OpPos})
				}
			}
		case *ast.CallExpr:
			fa.scanCall(x, v)
		default:
			if e, ok := node.(ast.Expr); ok && fa.d.spec.ExprSink != nil {
				for _, s := range fa.d.spec.ExprSink(fa.pkg, e) {
					fa.sinkArrivals(s, SinkHit{Kind: s.Kind, Detail: s.Detail, Pos: s.Expr.Pos()}, v)
				}
			}
		}
		return true
	})
}

// scanCall applies CallSink and replays the callee summary's parameter sinks
// against the argument facts.
func (fa *funcAnalysis) scanCall(call *ast.CallExpr, v view) {
	if fa.d.spec.CallSink != nil {
		for _, s := range fa.d.spec.CallSink(fa.pkg, call) {
			fa.sinkArrivals(s, SinkHit{Kind: s.Kind, Detail: s.Detail, Pos: s.Expr.Pos()}, v)
		}
	}
	// Conversions are also ExprSinks (time.Duration(x)); hand them over.
	if fa.d.spec.ExprSink != nil && fa.isConversion(call) {
		for _, s := range fa.d.spec.ExprSink(fa.pkg, call) {
			fa.sinkArrivals(s, SinkHit{Kind: s.Kind, Detail: s.Detail, Pos: s.Expr.Pos()}, v)
		}
	}
	callee := fa.calleeOf(call)
	if callee == nil {
		return
	}
	if fa.d.spec.IsSanitizer != nil && fa.d.spec.IsSanitizer(callee) {
		return
	}
	node := fa.d.g.NodeOf(callee)
	if node == nil {
		return
	}
	sum := fa.d.summaryOf(node)
	for i, hits := range sum.ParamSinks {
		if len(hits) == 0 {
			continue
		}
		arg := fa.argExpr(call, callee, i)
		if arg == nil {
			continue
		}
		facts := fa.eval(arg, v)
		for _, hit := range hits {
			promoted := SinkHit{
				Kind:   hit.Kind,
				Detail: hit.Detail,
				Pos:    call.Pos(),
				Chain:  append([]string{node.Name}, hit.Chain...),
			}
			for _, f := range facts {
				fa.report(f, promoted)
			}
		}
	}
}

// sinkArrivals delivers the facts of a sink operand to the sink.
func (fa *funcAnalysis) sinkArrivals(s Sink, hit SinkHit, v view) {
	for _, f := range fa.eval(s.Expr, v) {
		fa.report(f, hit)
	}
}

// report routes one fact→sink arrival: real labels go to the client,
// symbolic parameter facts go into the function's summary.
func (fa *funcAnalysis) report(f Fact, hit SinkHit) {
	if f.Label == "" {
		return
	}
	if i, ok := paramIndex(f.Label); ok {
		if i < len(fa.sum.ParamSinks) {
			key := fmt.Sprintf("sum|%d|%d|%s|%s", i, hit.Pos, hit.Kind, strings.Join(hit.Chain, ","))
			if !fa.reported[key] {
				fa.reported[key] = true
				fa.sum.ParamSinks[i] = append(fa.sum.ParamSinks[i], hit)
			}
		}
		return
	}
	key := fmt.Sprintf("diag|%s|%d|%s|%s", f.Label, hit.Pos, hit.Kind, strings.Join(hit.Chain, ","))
	if fa.reported[key] {
		return
	}
	fa.reported[key] = true
	if fa.d.spec.Report != nil {
		fa.d.spec.Report(fa.node, f, hit)
	}
}

func firstReal(facts []Fact) Fact {
	for _, f := range facts {
		if _, isParam := paramIndex(f.Label); !isParam && f.Label != "" {
			return f
		}
	}
	if len(facts) > 0 {
		return facts[0]
	}
	return Fact{}
}

// sanitizerKills collects the laundering effect of every sanitizer call in a
// statement or condition: all facts on every argument's value are retired.
func (fa *funcAnalysis) sanitizerKills(n ast.Node, v view) []interface{} {
	var out []interface{}
	ast.Inspect(n, func(node ast.Node) bool {
		if _, ok := node.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := node.(*ast.CallExpr); ok {
			out = append(out, fa.killsOfCall(call, v)...)
		}
		return true
	})
	return out
}

func (fa *funcAnalysis) killsOfCall(call *ast.CallExpr, v view) []interface{} {
	callee := fa.calleeOf(call)
	if callee == nil || fa.d.spec.IsSanitizer == nil || !fa.d.spec.IsSanitizer(callee) {
		return nil
	}
	var out []interface{}
	kill := func(e ast.Expr) {
		if ue, ok := ast.Unparen(e).(*ast.UnaryExpr); ok && ue.Op == token.AND {
			e = ue.X
		}
		key, ok := fa.keyOf(e)
		if !ok {
			return
		}
		var matched []ValueKey
		for k := range v {
			if k.Root != key.Root {
				continue
			}
			if key.Path == "" || k.Path == key.Path || strings.HasPrefix(k.Path, key.Path+".") {
				matched = append(matched, k)
			}
		}
		// All matched keys share one root; path order makes the kill list
		// deterministic.
		sort.Slice(matched, func(i, j int) bool { return matched[i].Path < matched[j].Path })
		for _, k := range matched {
			for _, f := range v[k] {
				out = append(out, interface{}(factKey{val: k, label: f.Label}))
			}
		}
	}
	for _, a := range call.Args {
		kill(a)
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if sig, _ := callee.Type().(*types.Signature); sig != nil && sig.Recv() != nil {
			kill(sel.X)
		}
	}
	return out
}

package analysis

import (
	"go/ast"
	"go/token"
	"sort"
)

// The pairing walker: a conservative, branch-aware traversal that tracks
// "resources" (open trace spans, dataflow facts) through a function body and
// reports the ones still held at each exit. It is deliberately simpler than
// a full CFG — the simulator's code style is straight-line with early error
// returns, which this models exactly:
//
//   - if/else, switch and select branches are walked with copies of the held
//     set; the fall-through state is the union of every branch that does not
//     terminate (so a resource released on only one side stays "held", which
//     is precisely the "not released on all paths" bug).
//   - loops are walked once and unioned with the pre-loop state.
//   - a release inside a defer (including inside a deferred closure) retires
//     the resource for the whole remainder of the function.
//   - panic and t.Fatal-style terminators end a path without a report: an
//     unwinding path is not a leak.

// Held is one live resource.
type Held struct {
	Key interface{} // analyzer-chosen identity (string, types.Object, ...)
	Pos token.Pos   // acquisition site
}

// FlowHooks parameterizes the walk.
type FlowHooks struct {
	// Classify inspects one non-control-flow statement, given the held set
	// before it, and returns the resource keys it acquires and releases
	// (releases apply first). The walker calls it for expression,
	// assignment, declaration, and (with isDefer set) defer statements, and
	// for range statements (to bind the iteration variables) before the
	// body is walked. The held set is the transfer-function input the
	// dataflow layer needs, where what a statement generates depends on
	// what its operands already carry.
	Classify func(stmt ast.Stmt, isDefer bool, held []Held) (acquired []Held, released []interface{})
	// AtExit is invoked with the held resources at every return statement
	// (ret non-nil) and at an implicit fall-off-the-end exit (ret nil).
	AtExit func(ret *ast.ReturnStmt, held []Held)
	// Cond, when set, is invoked for branch conditions — if and for
	// conditions, switch tags, and range operands — with the held set at
	// the branch point. Its effects apply to every outgoing branch; a
	// condition that launders a resource (a declared sanitizer called in a
	// guard) retires it for the fall-through state.
	Cond func(e ast.Expr, held []Held) (acquired []Held, released []interface{})
	// Init seeds the held set before the first statement — how the dataflow
	// layer gives parameters their symbolic facts on entry.
	Init []Held
}

// WalkPaths runs the pairing walk over a function body.
func WalkPaths(body *ast.BlockStmt, hooks FlowHooks) {
	if body == nil {
		return
	}
	w := &flowWalker{hooks: hooks, deferred: map[interface{}]bool{}}
	held := newHeldSet()
	for _, h := range hooks.Init {
		held.add(h)
	}
	terminated := w.walkList(body.List, held)
	if !terminated {
		hooks.AtExit(nil, held.items())
	}
}

type flowWalker struct {
	hooks    FlowHooks
	deferred map[interface{}]bool // released by a defer: retired everywhere
}

// heldSet is an insertion-ordered set of held resources.
type heldSet struct {
	order []interface{}
	byKey map[interface{}]Held
}

func newHeldSet() *heldSet {
	return &heldSet{byKey: map[interface{}]Held{}}
}

func (s *heldSet) add(h Held) {
	if _, ok := s.byKey[h.Key]; !ok {
		s.order = append(s.order, h.Key)
	}
	s.byKey[h.Key] = h
}

func (s *heldSet) remove(key interface{}) {
	if _, ok := s.byKey[key]; !ok {
		return
	}
	delete(s.byKey, key)
	for i, k := range s.order {
		if k == key {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
}

func (s *heldSet) items() []Held {
	out := make([]Held, 0, len(s.byKey))
	for _, k := range s.order {
		out = append(out, s.byKey[k])
	}
	return out
}

func (s *heldSet) clone() *heldSet {
	c := newHeldSet()
	c.order = append([]interface{}(nil), s.order...)
	for k, v := range s.byKey {
		c.byKey[k] = v
	}
	return c
}

// union merges o into s, keeping a stable order.
func (s *heldSet) union(o *heldSet) {
	for _, k := range o.order {
		s.add(o.byKey[k])
	}
}

// walkList walks statements in order; it reports true when control cannot
// fall off the end of the list.
func (w *flowWalker) walkList(stmts []ast.Stmt, held *heldSet) bool {
	for _, s := range stmts {
		if w.walkStmt(s, held) {
			return true
		}
	}
	return false
}

func (w *flowWalker) classify(s ast.Stmt, isDefer bool, held *heldSet) {
	acq, rel := w.hooks.Classify(s, isDefer, held.items())
	for _, k := range rel {
		if isDefer {
			w.deferred[k] = true
		}
		held.remove(k)
	}
	for _, h := range acq {
		if w.deferred[h.Key] {
			continue // a defer already guarantees its release
		}
		held.add(h)
	}
}

// cond applies the Cond hook to a branch condition.
func (w *flowWalker) cond(e ast.Expr, held *heldSet) {
	if w.hooks.Cond == nil || e == nil {
		return
	}
	acq, rel := w.hooks.Cond(e, held.items())
	for _, k := range rel {
		held.remove(k)
	}
	for _, h := range acq {
		held.add(h)
	}
}

func (w *flowWalker) walkStmt(s ast.Stmt, held *heldSet) (terminated bool) {
	switch st := s.(type) {
	case *ast.ReturnStmt:
		w.hooks.AtExit(st, held.items())
		return true

	case *ast.ExprStmt:
		if isPanicCall(st.X) {
			return true
		}
		w.classify(st, false, held)

	case *ast.AssignStmt, *ast.DeclStmt, *ast.IncDecStmt, *ast.SendStmt:
		w.classify(s, false, held)

	case *ast.DeferStmt:
		w.classify(st, true, held)

	case *ast.BlockStmt:
		return w.walkList(st.List, held)

	case *ast.LabeledStmt:
		return w.walkStmt(st.Stmt, held)

	case *ast.IfStmt:
		if st.Init != nil {
			w.classify(st.Init, false, held)
		}
		w.cond(st.Cond, held)
		thenHeld := held.clone()
		thenTerm := w.walkList(st.Body.List, thenHeld)
		elseHeld := held.clone()
		elseTerm := false
		if st.Else != nil {
			elseTerm = w.walkStmt(st.Else, elseHeld)
		}
		merged := newHeldSet()
		if !thenTerm {
			merged.union(thenHeld)
		}
		if !elseTerm {
			merged.union(elseHeld)
		}
		*held = *merged
		return thenTerm && elseTerm && st.Else != nil

	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return w.walkBranches(s, held)

	case *ast.ForStmt:
		if st.Init != nil {
			w.classify(st.Init, false, held)
		}
		if st.Cond != nil {
			w.cond(st.Cond, held)
		}
		body := held.clone()
		w.walkList(st.Body.List, body)
		held.union(body)
		// `for {}` with no break is terminating per the spec.
		return st.Cond == nil && !hasBreak(st.Body)

	case *ast.RangeStmt:
		w.cond(st.X, held)
		// Bind the iteration variables (key/value derive from the ranged
		// operand) before walking the body.
		acq, rel := w.hooks.Classify(st, false, held.items())
		for _, k := range rel {
			held.remove(k)
		}
		for _, h := range acq {
			held.add(h)
		}
		body := held.clone()
		w.walkList(st.Body.List, body)
		held.union(body)

	case *ast.BranchStmt:
		// break/continue/goto leave this statement list; stop the linear
		// walk so following (unreachable from here) statements are not
		// double-processed with this branch's state.
		return true
	}
	return false
}

// walkBranches handles switch / type-switch / select uniformly.
func (w *flowWalker) walkBranches(s ast.Stmt, held *heldSet) bool {
	var clauses []ast.Stmt
	hasDefault := false
	switch st := s.(type) {
	case *ast.SwitchStmt:
		if st.Init != nil {
			w.classify(st.Init, false, held)
		}
		if st.Tag != nil {
			w.cond(st.Tag, held)
		}
		clauses = st.Body.List
	case *ast.TypeSwitchStmt:
		clauses = st.Body.List
	case *ast.SelectStmt:
		clauses = st.Body.List
	}
	merged := newHeldSet()
	allTerm := len(clauses) > 0
	for _, c := range clauses {
		var body []ast.Stmt
		switch cc := c.(type) {
		case *ast.CaseClause:
			body = cc.Body
			if cc.List == nil {
				hasDefault = true
			}
		case *ast.CommClause:
			body = cc.Body
			hasDefault = true // select blocks until a case runs
		}
		ch := held.clone()
		if !w.walkList(body, ch) {
			merged.union(ch)
			allTerm = false
		}
	}
	if len(clauses) == 0 || !hasDefault {
		merged.union(held)
		allTerm = false
	}
	*held = *merged
	return allTerm
}

func isPanicCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fn.Name == "panic"
	case *ast.SelectorExpr:
		// os.Exit, t.Fatal/Fatalf, log.Fatal*, runtime.Goexit.
		switch fn.Sel.Name {
		case "Exit", "Fatal", "Fatalf", "Goexit":
			return true
		}
	}
	return false
}

func hasBreak(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.BranchStmt:
			if v.Tok == token.BREAK {
				found = true
			}
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt, *ast.FuncLit:
			// break inside these does not break the outer for; a labeled
			// break would, but the simulator does not use labels for this.
			return false
		}
		return !found
	})
	return found
}

// FuncBodies yields every function body in the file as an independent
// analysis root: declarations and, separately, each function literal (whose
// resources must not leak into the enclosing function's accounting).
type FuncBody struct {
	Name string         // declared name, or "func literal"
	Decl *ast.FuncDecl  // nil for literals
	Lit  *ast.FuncLit   // nil for declarations
	Body *ast.BlockStmt // never nil
}

// FuncBodies collects the analysis roots of a file in source order.
func FuncBodies(f *ast.File) []FuncBody {
	var out []FuncBody
	ast.Inspect(f, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncDecl:
			if v.Body != nil {
				out = append(out, FuncBody{Name: v.Name.Name, Decl: v, Body: v.Body})
			}
		case *ast.FuncLit:
			out = append(out, FuncBody{Name: "func literal", Lit: v, Body: v.Body})
		}
		return true
	})
	sort.SliceStable(out, func(i, j int) bool { return out[i].Body.Pos() < out[j].Body.Pos() })
	return out
}

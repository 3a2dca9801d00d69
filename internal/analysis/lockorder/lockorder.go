// Package lockorder checks that simulated mutexes are always acquired in a
// consistent global order, never re-acquired while already held, and
// released on every path of the function that takes them.
//
// The invariant: sim.Mutex is FIFO and non-reentrant, so two processes that
// take the same pair of locks in opposite orders deadlock the simulated
// cluster at some later virtual time, far from either acquisition site. A
// leaked lock fails the same way: the guest↔daemon ring serializes requests
// under per-slot spinlocks (paper §3.3, internal/core/ring.go), and a return
// path that skips the Unlock deadlocks some later request. Every Lock must
// be paired with an Unlock on all return paths, by defer or explicitly.
//
// For ordering, the analyzer abstracts every lock to its *class* — the struct
// field that owns it, "(pkg.Type).field" — builds a static acquired-while-
// holding graph over the whole program (flow-walking each function with the
// call graph supplying transitive acquisition summaries for callees), and
// reports every cycle and every same-class double-acquire.
//
// Keying by field means all instances of a class (every per-datanode entry
// of a `map[string]*sim.Mutex` field, say) share one node. That is the
// useful abstraction for ordering — code that locks two instances of the
// same class in arbitrary instance order is itself a deadlock unless an
// instance order is imposed, which is exactly what the self-cycle report
// flags. Deliberate instance-ordered acquisition can be suppressed with
// //lint:allow lockorder(reason).
package lockorder

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"vread/internal/analysis"
)

// Analyzer is the lock-ordering checker.
var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc: "require a consistent global sim.Mutex acquisition order (no " +
		"cycles in the acquired-while-holding graph, no double-acquires) " +
		"and an Unlock on every return path (ring spinlock invariant)",
	Run: run,
}

const mutexPath = "vread/internal/sim"
const mutexType = "Mutex"

// leak is a lock's flow-walk key for the leak check: the source text of its
// receiver, so two mentions of d.ring.reqMu in one function are one lock.
type leak string

// edgeInfo is the first-seen witness for one acquired-while-holding edge.
type edgeInfo struct {
	pos token.Pos // acquisition (or call) site that created the edge
	via string    // "" for a direct Lock; callee chain for summarized calls
}

type checker struct {
	pass  *analysis.Pass
	graph *analysis.CallGraph

	// direct[node] = lock classes Lock()ed directly in the node's body.
	direct map[*analysis.FuncNode][]string
	// summary[node] = classes acquired by the node or anything it calls.
	summary map[*analysis.FuncNode][]string

	// edges[from][to] = witnesses of "to acquired while holding from", in
	// discovery order (node-name order, then source order — deterministic).
	edges map[string]map[string][]edgeInfo
	// recvText[pos] = source text of the Lock receiver at that acquisition,
	// used to tell a same-instance re-acquire from a same-class one.
	recvText map[token.Pos]string
}

func run(pass *analysis.Pass) error {
	c := &checker{
		pass:     pass,
		graph:    pass.Graph,
		direct:   make(map[*analysis.FuncNode][]string),
		summary:  make(map[*analysis.FuncNode][]string),
		edges:    make(map[string]map[string][]edgeInfo),
		recvText: make(map[token.Pos]string),
	}
	// The engine package implements the lock itself.
	var nodes []*analysis.FuncNode
	for _, n := range c.graph.Nodes {
		if n.Pkg.Path == mutexPath || pass.IsTestFile(n.Pos()) {
			continue
		}
		nodes = append(nodes, n)
		c.direct[n] = c.directAcquires(n)
	}
	for _, n := range nodes {
		c.summarize(n, make(map[*analysis.FuncNode]bool))
	}
	for _, n := range nodes {
		c.walk(n)
	}
	c.reportCycles()
	return nil
}

// directAcquires collects the classes of every Lock call lexically inside
// the node's body, nested literals excluded (they are their own nodes).
func (c *checker) directAcquires(n *analysis.FuncNode) []string {
	var out []string
	seen := map[string]bool{}
	ast.Inspect(n.Body, func(node ast.Node) bool {
		if _, ok := node.(*ast.FuncLit); ok && node != ast.Node(n.Lit) {
			return false
		}
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		if cls, kind, _ := c.mutexCall(n, call); kind == "Lock" && !seen[cls] {
			seen[cls] = true
			out = append(out, cls)
		}
		return true
	})
	sort.Strings(out)
	return out
}

// summarize computes the transitive acquisition summary of n (memoized;
// cycles in the call graph contribute what was known when re-entered).
func (c *checker) summarize(n *analysis.FuncNode, walking map[*analysis.FuncNode]bool) []string {
	if s, ok := c.summary[n]; ok {
		return s
	}
	if walking[n] {
		return c.direct[n]
	}
	walking[n] = true
	set := map[string]bool{}
	for _, cls := range c.direct[n] {
		set[cls] = true
	}
	for _, callee := range c.graph.Callees(n) {
		for _, cls := range c.summarize(callee, walking) {
			set[cls] = true
		}
	}
	delete(walking, n)
	out := make([]string, 0, len(set))
	for cls := range set {
		out = append(out, cls)
	}
	sort.Strings(out)
	c.summary[n] = out
	return out
}

// walk flow-walks one function, recording acquired-while-holding edges at
// every direct Lock and — through the callee summaries — at every call, and
// reporting the locks still held at each exit.
func (c *checker) walk(n *analysis.FuncNode) {
	name := "func literal"
	if n.Decl != nil {
		name = n.Decl.Name.Name
	}
	hooks := analysis.FlowHooks{
		Classify: func(stmt ast.Stmt, isDefer bool) ([]analysis.Held, []interface{}) {
			return c.classify(n, stmt, isDefer)
		},
		AtExit: func(ret *ast.ReturnStmt, held []analysis.Held) {
			for _, h := range held {
				recv, ok := h.Key.(leak)
				if !ok {
					continue
				}
				pos := h.Pos
				where := "before falling off the end of " + name
				if ret != nil {
					pos = ret.Pos()
					where = "on this return path"
				}
				c.pass.Reportf(pos, "ring spinlock %s.Lock (acquired at line %d) is not released %s: the lock-pairing invariant (paper §3.3 per-slot spinlocks) requires Unlock on every path or a defer",
					recv, c.pass.Prog.Fset.Position(h.Pos).Line, where)
			}
		},
		AtAcquire: func(h analysis.Held, held []analysis.Held) {
			cls, ok := h.Key.(string)
			if !ok {
				return
			}
			for _, a := range held {
				if _, ok := a.Key.(leak); ok {
					continue
				}
				if a.Key.(string) != cls {
					c.edge(a.Key.(string), cls, edgeInfo{pos: h.Pos})
					continue
				}
				line := c.pass.Prog.Fset.Position(a.Pos).Line
				if c.recvText[h.Pos] == c.recvText[a.Pos] {
					c.pass.Reportf(h.Pos, "lock %s is acquired while already held (acquired at line %d): sim.Mutex is not reentrant, this deadlocks the simulated cluster",
						cls, line)
				} else {
					c.pass.Reportf(h.Pos, "lock %s may be acquired while an instance of it is already held (%s at line %d): impose an instance order or release the first lock",
						cls, c.recvText[a.Pos], line)
				}
			}
		},
		Events: func(stmt ast.Stmt, isDefer bool) []analysis.Held {
			if isDefer {
				// A deferred call runs at exit; deferred Unlocks are the
				// release idiom and deferred lock-taking does not occur.
				return nil
			}
			return c.callEvents(n, stmt)
		},
		AtEvent: func(ev analysis.Held, held []analysis.Held) {
			if len(held) == 0 {
				return
			}
			callee := ev.Key.(*analysis.FuncNode)
			for _, cls := range c.summary[callee] {
				for _, a := range held {
					// A same-class summary acquisition makes a self-loop
					// edge, reported as a reentrancy cycle.
					if from, ok := a.Key.(string); ok {
						c.edge(from, cls, edgeInfo{pos: ev.Pos, via: callee.Name})
					}
				}
			}
		},
	}
	analysis.WalkPaths(n.Body, hooks)
}

// classify reports each Lock as two acquisitions: its class, for the
// ordering graph, and its leak key, for the exit check. A non-deferred
// Unlock releases both. A deferred Unlock — also one inside a deferred
// closure — releases only the leak key: the lock stays held for the rest of
// the function, which is the window the ordering invariant cares about, but
// every path out releases it. Other function literals are separate graph
// nodes, walked on their own.
func (c *checker) classify(n *analysis.FuncNode, stmt ast.Stmt, isDefer bool) (acq []analysis.Held, rel []interface{}) {
	var visit func(node ast.Node, inLit bool) bool
	visit = func(node ast.Node, inLit bool) bool {
		if lit, ok := node.(*ast.FuncLit); ok {
			if isDefer && !inLit {
				ast.Inspect(lit.Body, func(m ast.Node) bool { return visit(m, true) })
			}
			return false
		}
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		cls, kind, recv := c.mutexCall(n, call)
		switch {
		case kind == "Lock" && !inLit:
			acq = append(acq, analysis.Held{Key: cls, Pos: call.Pos()}, analysis.Held{Key: leak(recv), Pos: call.Pos()})
		case kind == "Unlock" && isDefer:
			rel = append(rel, leak(recv))
		case kind == "Unlock":
			rel = append(rel, cls, leak(recv))
		}
		return true
	}
	ast.Inspect(stmt, func(m ast.Node) bool { return visit(m, false) })
	return acq, rel
}

// callEvents returns one event per resolvable call in stmt: direct calls to
// program functions, and function-literal definitions (defining a closure on
// a path is conservatively treated as calling it, matching the call graph).
func (c *checker) callEvents(n *analysis.FuncNode, stmt ast.Stmt) []analysis.Held {
	var out []analysis.Held
	ast.Inspect(stmt, func(node ast.Node) bool {
		switch v := node.(type) {
		case *ast.FuncLit:
			if ln := c.litNode(n, v); ln != nil {
				out = append(out, analysis.Held{Key: ln, Pos: v.Pos()})
			}
			return false
		case *ast.CallExpr:
			if cls, _, _ := c.mutexCall(n, v); cls != "" {
				return true // the Lock/Unlock itself, handled by Classify
			}
			var obj types.Object
			switch fn := ast.Unparen(v.Fun).(type) {
			case *ast.Ident:
				obj = n.Pkg.TypesInfo.Uses[fn]
			case *ast.SelectorExpr:
				obj = n.Pkg.TypesInfo.Uses[fn.Sel]
			}
			if fn, ok := obj.(*types.Func); ok {
				if callee := c.graph.NodeOf(fn); callee != nil {
					out = append(out, analysis.Held{Key: callee, Pos: v.Pos()})
				}
			}
		}
		return true
	})
	return out
}

// litNode finds the graph node of a literal nested in n by position.
func (c *checker) litNode(n *analysis.FuncNode, lit *ast.FuncLit) *analysis.FuncNode {
	for _, cand := range c.graph.Nodes {
		if cand.Lit == lit {
			return cand
		}
	}
	return nil
}

// mutexCall classifies call as a sim.Mutex Lock/Unlock and resolves the
// receiver's lock class and source text; kind is "" for any other call.
func (c *checker) mutexCall(n *analysis.FuncNode, call *ast.CallExpr) (cls, kind, recv string) {
	recvPath, recvType, method, sel, ok := analysis.CallMethod(n.Pkg.TypesInfo, call)
	if !ok || recvPath != mutexPath || recvType != mutexType {
		return "", "", ""
	}
	if method != "Lock" && method != "Unlock" {
		return "", "", ""
	}
	recv = types.ExprString(sel.X)
	if method == "Lock" {
		c.recvText[call.Pos()] = recv
	}
	return c.lockClass(n, sel.X), method, recv
}

// lockClass abstracts a lock expression to its class:
//
//	x.field          -> (pkg.Type).field   field of a named struct type
//	x.field[k]       -> (pkg.Type).field   one instance of a lock map/slice
//	pkgvar           -> pkg/path.name      package-level lock
//	local            -> class of its defining assignment's RHS
//	anything else    -> <node>:<expr>      function-local fallback class
func (c *checker) lockClass(n *analysis.FuncNode, expr ast.Expr) string {
	expr = ast.Unparen(expr)
	switch v := expr.(type) {
	case *ast.SelectorExpr:
		if s, ok := n.Pkg.TypesInfo.Selections[v]; ok && s.Kind() == types.FieldVal {
			recv := s.Recv()
			if ptr, ok := recv.(*types.Pointer); ok {
				recv = ptr.Elem()
			}
			if named, ok := recv.(*types.Named); ok && named.Obj().Pkg() != nil {
				return "(" + named.Obj().Pkg().Name() + "." + named.Obj().Name() + ")." + v.Sel.Name
			}
		}
		if obj, ok := n.Pkg.TypesInfo.Uses[v.Sel].(*types.Var); ok && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
			return obj.Pkg().Path() + "." + obj.Name()
		}
	case *ast.IndexExpr:
		return c.lockClass(n, v.X)
	case *ast.Ident:
		obj, ok := n.Pkg.TypesInfo.Uses[v].(*types.Var)
		if !ok {
			break
		}
		if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
			return obj.Pkg().Path() + "." + obj.Name()
		}
		if cls := c.localOrigin(n, obj); cls != "" {
			return cls
		}
	}
	return n.Name + ":" + types.ExprString(expr)
}

// localOrigin resolves a local lock variable to the class of the expression
// it was assigned from, scanning the node body for its defining assignments.
// Assignments from sim.NewMutex (fresh locks being installed into a map) are
// skipped in favor of an assignment that names the owning container.
func (c *checker) localOrigin(n *analysis.FuncNode, obj *types.Var) string {
	var cls string
	ast.Inspect(n.Body, func(node ast.Node) bool {
		if cls != "" {
			return false
		}
		as, ok := node.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			def := n.Pkg.TypesInfo.Defs[id]
			use := n.Pkg.TypesInfo.Uses[id]
			if def != obj && use != obj {
				continue
			}
			rhs := ast.Unparen(as.Rhs[i])
			if _, isCall := rhs.(*ast.CallExpr); isCall {
				continue // sim.NewMutex or another constructor: no class
			}
			if got := c.lockClass(n, rhs); !strings.Contains(got, ":") {
				cls = got
				return false
			}
		}
		return true
	})
	return cls
}

// edge records a witness for from→to.
func (c *checker) edge(from, to string, info edgeInfo) {
	m := c.edges[from]
	if m == nil {
		m = make(map[string][]edgeInfo)
		c.edges[from] = m
	}
	m[to] = append(m[to], info)
}

// reportCycles finds every elementary cycle reachable by DFS over the
// sorted class graph and reports each once, at its first edge's witness.
func (c *checker) reportCycles() {
	classes := make([]string, 0, len(c.edges))
	for cls := range c.edges {
		classes = append(classes, cls)
	}
	sort.Strings(classes)

	reported := map[string]bool{}
	var stack []string
	onStack := map[string]bool{}
	var dfs func(cls string)
	dfs = func(cls string) {
		stack = append(stack, cls)
		onStack[cls] = true
		next := make([]string, 0, len(c.edges[cls]))
		for to := range c.edges[cls] {
			next = append(next, to)
		}
		sort.Strings(next)
		for _, to := range next {
			if to == cls {
				// Self-loops only arise from call summaries (direct
				// same-class re-acquires are reported by AtAcquire), and
				// every witness is its own site: report them all, so a
				// suppression at one site cannot mask another.
				for _, info := range c.edges[cls][cls] {
					msg := "lock " + cls + " may be acquired while an instance of it is already held"
					if info.via != "" {
						msg += " (through the call to " + info.via + ")"
					}
					c.pass.Reportf(info.pos, "%s: sim.Mutex is not reentrant, and two instances of one class locked in arbitrary instance order deadlock", msg)
				}
				continue
			}
			if onStack[to] {
				i := len(stack) - 1
				for i >= 0 && stack[i] != to {
					i--
				}
				cyc := append(append([]string(nil), stack[i:]...), to)
				c.reportCycleOnce(cyc, reported)
				continue
			}
			dfs(to)
		}
		onStack[cls] = false
		stack = stack[:len(stack)-1]
	}
	for _, cls := range classes {
		dfs(cls)
	}
}

// reportCycleOnce canonicalizes (rotates the smallest class first) so each
// cycle is reported exactly once however the DFS entered it.
func (c *checker) reportCycleOnce(cyc []string, reported map[string]bool) {
	body := cyc[:len(cyc)-1] // drop the closing repeat
	min := 0
	for i := range body {
		if body[i] < body[min] {
			min = i
		}
	}
	rot := append(append([]string(nil), body[min:]...), body[:min]...)
	rot = append(rot, rot[0])
	key := strings.Join(rot, "→")
	if reported[key] {
		return
	}
	reported[key] = true
	c.reportCycle(rot)
}

func (c *checker) reportCycle(cyc []string) {
	info := c.edges[cyc[0]][cyc[1]][0]
	var detail []string
	for i := 0; i+1 < len(cyc); i++ {
		e := c.edges[cyc[i]][cyc[i+1]][0]
		at := c.pass.Prog.Fset.Position(e.pos)
		step := cyc[i+1] + " while holding " + cyc[i] + " at " + at.Filename + ":" + itoa(at.Line)
		if e.via != "" {
			step += " (via " + e.via + ")"
		}
		detail = append(detail, step)
	}
	c.pass.Reportf(info.pos, "lock order cycle %s: %s — impose one global acquisition order",
		strings.Join(cyc, " → "), strings.Join(detail, "; "))
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [12]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

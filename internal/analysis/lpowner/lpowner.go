// Package lpowner machine-checks the sharded engine's isolation invariant:
// all simulation state reachable from an LP's callbacks is private to that
// LP, and the only sanctioned cross-LP channels are LP.Send and the
// coordinator's between-epoch phases (internal/sim/shard/shard.go). The
// ownership of a piece of state is declared where it lives:
//
//	//lint:owner(lp: reason)          Env-affine — owned by the LP whose
//	                                  sim.Env schedules into it
//	//lint:owner(coordinator: reason) touched only between epochs (mailbox
//	                                  drain, epoch windows); LPs may read it
//	                                  — the coordinator mutates only while
//	                                  every LP is quiesced — but never write
//	//lint:shared(reason)             immutable-shared — config and topology
//	                                  frozen before the clock starts
//
// and on functions:
//
//	//lint:owner(coordinator: reason) a coordinator-phase function — must
//	                                  never be reachable from LP context
//	//lint:owner(boundary: reason)    a sanctioned cross-LP channel
//	                                  (LP.Send, the fabric's deliverOn):
//	                                  its body is exempt and values passed
//	                                  through it arrive laundered
//
// LP context is computed from the call graph: every function value passed to
// an entry point into sim context (Env.Schedule/Go, Thread.Post, LP.Send,
// cluster/testbed proc launchers, fabric delivery hooks, virtio/storage
// completion callbacks — the rootAPIs table) runs under some LP's Env, and
// everything reachable from those roots (not crossing a boundary or
// coordinator-phase function) is LP context. The call graph records a
// definition edge from each function to the literals it defines, so a
// closure built inside an LP callback is LP context too, even when it is
// stored in a variable before being scheduled. From there the analyzer
// reports:
//
//   - a coordinator-phase function called from LP context;
//   - a write to //lint:shared or coordinator-owned state from LP context;
//   - a possibly-remote handle — a value read through a //lint:source
//     lpowner field or returned by a //lint:source lpowner accessor —
//     reaching another LP's Env-affine state: a scheduling method
//     (Env.Schedule/Go, Thread.Post, Queue/Signal operations) on the remote
//     object, or a //lint:owner(lp) field of it, without first passing
//     through a boundary function or a //lint:sanitizer lpowner accessor
//     (the same-Env escape hatch).
//
// Reports carry the scheduling site of the root callback and the call-chain
// witness, like lockorder and guesttaint. Precision notes: closure captures
// do not carry remote facts (a closure handed to LP.Send re-resolves its
// peer on the destination Env, which is exactly the sanctioned pattern);
// writes are detected through selector/index lvalues, not pointer
// indirection; indirect calls to coordinator-phase functions are not seen;
// a setup-time closure held in a variable and scheduled later is rooted at
// its definition only if the definer is itself LP context.
package lpowner

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
	"sort"
	"strings"

	"vread/internal/analysis"
)

// Analyzer is the LP-ownership invariant.
var Analyzer = &analysis.Analyzer{
	Name: "lpowner",
	Doc:  "LP state is private to its Env: no coordinator-phase calls, shared/coordinator-state writes, or remote-handle scheduling from LP context without LP.Send",
	Run:  run,
}

const (
	simPath   = "vread/internal/sim"
	cpuPath   = "vread/internal/cpusched"
	shardPath = "vread/internal/sim/shard"
)

// schedSinks lists the methods that schedule work onto (or block on) the
// state of their receiver's Env — the operations a remote handle must not
// reach. Keyed by import path, then "Type.Method".
var schedSinks = map[string]map[string]string{
	simPath: {
		"Env.Schedule": "cross-Env schedule", "Env.Go": "cross-Env schedule",
		"Env.GoAfter": "cross-Env schedule", "Env.Run": "cross-Env run",
		"Env.RunUntil": "cross-Env run", "Env.RunFor": "cross-Env run",
		"Env.Stop": "cross-Env stop", "Env.Close": "cross-Env close",
		"Env.SetIdleHook": "cross-Env hook",
		"Queue.Put":       "cross-Env queue op", "Queue.TryPut": "cross-Env queue op",
		"Queue.Get": "cross-Env queue op", "Queue.TryGet": "cross-Env queue op",
		"Queue.GetTimeout": "cross-Env queue op", "Queue.Close": "cross-Env queue op",
		"Signal.Broadcast": "cross-Env signal", "Signal.Signal": "cross-Env signal",
		"Signal.Wait": "cross-Env signal", "Signal.WaitTimeout": "cross-Env signal",
	},
	cpuPath: {
		"Thread.Post": "cross-Env thread post", "Thread.PostT": "cross-Env thread post",
		"Thread.Run": "cross-Env thread run", "Thread.RunT": "cross-Env thread run",
		"Thread.RunDur": "cross-Env thread run",
	},
}

// rootAPIs lists the entry points into sim context: any function-typed
// argument at a call to one of these runs (or may run) under some LP's Env,
// and becomes an LP-context root. Keyed by import path, then "Type.Method"
// for methods and the bare name for package functions. Deliberately absent:
// par.Gang.Round (worker harness, not sim), sort.Slice and friends, and the
// experiment cell builders — those run on the coordinator or the test
// goroutine.
var rootAPIs = map[string]map[string]bool{
	simPath: {
		"Env.Schedule": true, "Env.Go": true, "Env.GoAfter": true,
		"Env.SetIdleHook": true,
	},
	cpuPath: {
		"Thread.Post": true, "Thread.PostT": true,
		"Thread.Run": true, "Thread.RunT": true, "Thread.RunDur": true,
	},
	shardPath:                    {"LP.Send": true},
	"vread/internal/cluster":     {"Cluster.Go": true, "Host.Go": true},
	"vread/internal/experiments": {"Testbed.Run": true},
	"vread/internal/netsim": {
		"Fabric.SetInterconnect": true, "Fabric.BindHostPort": true,
		"Fabric.NewQP": true, "QP.PostFrom": true,
		"NIC.SendToVM": true, "NIC.SendToHost": true, "NIC.SendDMA": true,
	},
	"vread/internal/virtio": {
		"NetDev.SetDeliver":    true,
		"BlkDev.TryReadAsyncT": true,
	},
	"vread/internal/storage": {
		"Disk.ReadAsync": true, "Disk.ReadAsyncT": true, "Disk.WriteAsync": true,
	},
	"vread/internal/workload": {"RunOpenLoop": true},
	"vread/internal/guest":    {"Network.SetCrossEnv": true},
}

// ownerRx matches the ownership directives: //lint:owner(class: reason) and
// //lint:shared(reason).
var ownerRx = regexp.MustCompile(`^//\s*lint:(owner|shared)\s*\(([^)]*)\)`)

// stateClass is the declared ownership of one field or package-level var.
type stateClass string

const (
	classLP          stateClass = "lp"
	classCoordinator stateClass = "coordinator"
	classShared      stateClass = "shared"
	classBoundary    stateClass = "boundary"
)

type annotation struct {
	class stateClass
	pos   token.Pos // directive position, cited in witnesses
}

// ownership is the collected annotation index.
type ownership struct {
	state map[*types.Var]annotation  // struct fields and package-level vars
	funcs map[*types.Func]annotation // coordinator-phase and boundary functions
}

func run(pass *analysis.Pass) error {
	prog, g := pass.Prog, pass.Graph
	badDirective := func(pos token.Pos, msg string) { pass.Reportf(pos, "%s", msg) }
	ann := collectOwnership(prog, pass)
	sanitizers := analysis.AnnotatedFuncs(prog, "sanitizer", "lpowner", badDirective)
	srcFuncs := analysis.AnnotatedFuncs(prog, "source", "lpowner", badDirective)
	srcFields := analysis.AnnotatedFields(prog, "source", "lpowner", badDirective)

	// Each package type-checks in its own object world, so *types.Func keys
	// from the defining package never match a Uses entry in an importing
	// package. The call graph's canonical node names bridge the worlds: all
	// function lookups below go through names.
	idx := &funcIndex{
		coord:    make(map[string]annotation),
		boundary: make(map[string]bool),
		san:      nameSet(g, sanitizers),
		source:   nameSet(g, srcFuncs),
		g:        g,
	}
	for fn, a := range ann.funcs {
		n := g.NodeOf(fn)
		if n == nil {
			continue
		}
		switch a.class {
		case classCoordinator:
			idx.coord[n.Name] = a
		case classBoundary:
			idx.boundary[n.Name] = true
		}
	}

	exempt := exemptNames(g, ann)
	isExempt := func(n *analysis.FuncNode) bool {
		if exempt[n.Name] {
			return true
		}
		// Nested literals inherit their parent's exemption: drain$1 is part
		// of drain.
		for name := range exempt {
			if strings.HasPrefix(n.Name, name+"$") {
				return true
			}
		}
		return false
	}

	tree, rootSite := lpContext(prog, g, isExempt)
	checkContext(pass, g, ann, idx, tree, rootSite, isExempt)
	checkRemoteHandles(pass, ann, idx, srcFields, isExempt)
	return nil
}

// funcIndex resolves function-level classifications by canonical call-graph
// node name, which works across package object worlds.
type funcIndex struct {
	coord    map[string]annotation // coordinator-phase functions
	boundary map[string]bool       // boundary functions
	san      map[string]bool       // //lint:sanitizer lpowner functions
	source   map[string]bool       // //lint:source lpowner functions
	g        *analysis.CallGraph
}

func (x *funcIndex) nameOf(fn *types.Func) string {
	if n := x.g.NodeOf(fn); n != nil {
		return n.Name
	}
	return ""
}

func nameSet(g *analysis.CallGraph, fns map[*types.Func]string) map[string]bool {
	out := make(map[string]bool, len(fns))
	for fn := range fns {
		if n := g.NodeOf(fn); n != nil {
			out[n.Name] = true
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Annotation collection.

func collectOwnership(prog *analysis.Program, pass *analysis.Pass) *ownership {
	ann := &ownership{
		state: make(map[*types.Var]annotation),
		funcs: make(map[*types.Func]annotation),
	}
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			consumed := make(map[*ast.Comment]bool)
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					collectFuncAnn(pass, pkg, d, ann, consumed)
				case *ast.GenDecl:
					collectDeclAnn(pass, pkg, d, ann, consumed)
				}
			}
			// Any ownership directive not attached to a struct field, a
			// package-level var, or a function declaration is misplaced —
			// the local-var case the contract forbids.
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if consumed[c] || !ownerRx.MatchString(c.Text) {
						continue
					}
					pass.Reportf(c.Pos(), "ownership directives apply to struct fields, package-level vars, and function declarations — not local declarations; move the annotation to the owning type")
				}
			}
		}
	}
	return ann
}

// ownerDirectives parses the ownership directives of one comment group,
// marking every matched comment consumed.
func ownerDirectives(cg *ast.CommentGroup, consumed map[*ast.Comment]bool) []parsedDirective {
	if cg == nil {
		return nil
	}
	var out []parsedDirective
	for _, c := range cg.List {
		m := ownerRx.FindStringSubmatch(c.Text)
		if m == nil {
			continue
		}
		consumed[c] = true
		d := parsedDirective{kind: m[1], pos: c.Pos()}
		payload := strings.TrimSpace(m[2])
		if d.kind == "shared" {
			d.class, d.reason = classShared, payload
		} else if i := strings.Index(payload, ":"); i >= 0 {
			d.class = stateClass(strings.TrimSpace(payload[:i]))
			d.reason = strings.TrimSpace(payload[i+1:])
		} else {
			d.class = stateClass(payload)
		}
		out = append(out, d)
	}
	return out
}

type parsedDirective struct {
	kind   string // "owner" or "shared"
	class  stateClass
	reason string
	pos    token.Pos
}

// recordState validates and records one state annotation, reporting unknown
// classes, missing reasons, and conflicting annotations on the same decl.
func recordState(pass *analysis.Pass, ann *ownership, v *types.Var, d parsedDirective) {
	if v == nil {
		return
	}
	if d.kind == "owner" && d.class != classLP && d.class != classCoordinator {
		pass.Reportf(d.pos, "unknown owner class %q on state: want //lint:owner(lp: why) or //lint:owner(coordinator: why), or //lint:shared(why)", d.class)
		return
	}
	if d.reason == "" {
		pass.Reportf(d.pos, "ownership annotation needs a reason: write //lint:%s", exampleFor(d))
		return
	}
	if prev, ok := ann.state[v]; ok && prev.class != d.class {
		pass.Reportf(d.pos, "conflicting ownership for %s: already declared %s at %s", v.Name(), prev.class, shortPos(pass, prev.pos))
		return
	}
	ann.state[v] = annotation{class: d.class, pos: d.pos}
}

func exampleFor(d parsedDirective) string {
	if d.kind == "shared" {
		return "shared(why)"
	}
	return fmt.Sprintf("owner(%s: why)", d.class)
}

func collectFuncAnn(pass *analysis.Pass, pkg *analysis.Package, fd *ast.FuncDecl, ann *ownership, consumed map[*ast.Comment]bool) {
	for _, d := range ownerDirectives(fd.Doc, consumed) {
		if d.kind == "shared" || (d.class != classCoordinator && d.class != classBoundary) {
			pass.Reportf(d.pos, "unknown owner class %q on a function: want //lint:owner(coordinator: why) or //lint:owner(boundary: why)", d.class)
			continue
		}
		if d.reason == "" {
			pass.Reportf(d.pos, "ownership annotation needs a reason: write //lint:%s", exampleFor(d))
			continue
		}
		fn, _ := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
		if fn == nil {
			continue
		}
		if prev, ok := ann.funcs[fn]; ok && prev.class != d.class {
			pass.Reportf(d.pos, "conflicting ownership for %s: already declared %s at %s", fn.Name(), prev.class, shortPos(pass, prev.pos))
			continue
		}
		ann.funcs[fn] = annotation{class: d.class, pos: d.pos}
	}
	// Directives on local declarations inside the body surface through the
	// leftover scan; struct fields of local types are walked here so their
	// comments are still classified as misplaced, not silently dropped.
}

func collectDeclAnn(pass *analysis.Pass, pkg *analysis.Package, gd *ast.GenDecl, ann *ownership, consumed map[*ast.Comment]bool) {
	switch gd.Tok {
	case token.VAR:
		declDs := ownerDirectives(gd.Doc, consumed)
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			ds := append(append([]parsedDirective(nil), declDs...), ownerDirectives(vs.Doc, consumed)...)
			ds = append(ds, ownerDirectives(vs.Comment, consumed)...)
			for _, name := range vs.Names {
				v, _ := pkg.TypesInfo.Defs[name].(*types.Var)
				for _, d := range ds {
					recordState(pass, ann, v, d)
				}
			}
		}
	case token.TYPE:
		for _, spec := range gd.Specs {
			ts, ok := spec.(*ast.TypeSpec)
			if !ok {
				continue
			}
			ast.Inspect(ts.Type, func(n ast.Node) bool {
				st, ok := n.(*ast.StructType)
				if !ok || st.Fields == nil {
					return true
				}
				for _, field := range st.Fields.List {
					ds := append(ownerDirectives(field.Doc, consumed), ownerDirectives(field.Comment, consumed)...)
					for _, name := range field.Names {
						v, _ := pkg.TypesInfo.Defs[name].(*types.Var)
						for _, d := range ds {
							recordState(pass, ann, v, d)
						}
					}
				}
				return true
			})
		}
	}
}

// exemptNames returns the node names of coordinator-phase and boundary
// functions — the bodies the context and dataflow rules do not look inside.
func exemptNames(g *analysis.CallGraph, ann *ownership) map[string]bool {
	out := make(map[string]bool, len(ann.funcs))
	for fn := range ann.funcs {
		if n := g.NodeOf(fn); n != nil {
			out[n.Name] = true
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// LP-context computation.

// lpContext computes the set of functions assumed to run under some LP's
// Env, as a BFS parent tree for witness reconstruction, plus each root's
// scheduling site (where the function value escaped into a callback).
// Deterministic: roots sorted by node name, callees expanded in name order.
func lpContext(prog *analysis.Program, g *analysis.CallGraph, isExempt func(*analysis.FuncNode) bool) (map[*analysis.FuncNode]*analysis.FuncNode, map[*analysis.FuncNode]token.Pos) {
	litNode := make(map[*ast.FuncLit]*analysis.FuncNode)
	for _, n := range g.Nodes {
		if n.Lit != nil {
			litNode[n.Lit] = n
		}
	}

	rootSite := make(map[*analysis.FuncNode]token.Pos)
	note := func(n *analysis.FuncNode, pos token.Pos) {
		if n == nil || isExempt(n) {
			return
		}
		if old, ok := rootSite[n]; !ok || pos < old {
			rootSite[n] = pos
		}
	}
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || !isRootCall(pkg, call) {
					return true
				}
				for _, arg := range call.Args {
					switch v := ast.Unparen(arg).(type) {
					case *ast.FuncLit:
						note(litNode[v], call.Pos())
					case *ast.Ident:
						if fn, ok := pkg.TypesInfo.Uses[v].(*types.Func); ok {
							note(g.NodeOf(fn), call.Pos())
						}
					case *ast.SelectorExpr:
						if fn, ok := pkg.TypesInfo.Uses[v.Sel].(*types.Func); ok {
							note(g.NodeOf(fn), call.Pos())
						}
					}
				}
				return true
			})
		}
	}

	roots := make([]*analysis.FuncNode, 0, len(rootSite))
	for n := range rootSite {
		roots = append(roots, n)
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].Name < roots[j].Name })

	parent := make(map[*analysis.FuncNode]*analysis.FuncNode, len(roots))
	queue := make([]*analysis.FuncNode, 0, len(roots))
	for _, r := range roots {
		parent[r] = r
		queue = append(queue, r)
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, c := range g.Callees(n) {
			if isExempt(c) {
				continue // boundaries and coordinator phases end LP context
			}
			if _, ok := parent[c]; !ok {
				parent[c] = n
				queue = append(queue, c)
			}
		}
	}
	return parent, rootSite
}

// isRootCall reports whether call resolves to one of the rootAPIs entry
// points — a method match via receiver path/type, or a package function by
// name.
func isRootCall(pkg *analysis.Package, call *ast.CallExpr) bool {
	if recvPath, recvType, name, _, ok := analysis.CallMethod(pkg.TypesInfo, call); ok {
		return rootAPIs[recvPath][recvType+"."+name]
	}
	fn := calleeFunc(pkg, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return false
	}
	return rootAPIs[fn.Pkg().Path()][fn.Name()]
}

// witness renders the "scheduled at S; call chain: a → b" suffix for a
// function in LP context.
func witness(pass *analysis.Pass, tree map[*analysis.FuncNode]*analysis.FuncNode, rootSite map[*analysis.FuncNode]token.Pos, n *analysis.FuncNode) string {
	path := analysis.PathFrom(tree, n)
	if len(path) == 0 {
		return ""
	}
	out := fmt.Sprintf(" (callback scheduled at %s)", shortPos(pass, rootSite[path[0]]))
	if len(path) > 1 {
		out += "; call chain: " + analysis.PathString(path)
	}
	return out
}

func shortPos(pass *analysis.Pass, pos token.Pos) string {
	p := pass.Prog.Fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}

// ---------------------------------------------------------------------------
// Context rules: coordinator-phase calls and shared/coordinator writes.

func checkContext(pass *analysis.Pass, g *analysis.CallGraph, ann *ownership, idx *funcIndex, tree map[*analysis.FuncNode]*analysis.FuncNode, rootSite map[*analysis.FuncNode]token.Pos, isExempt func(*analysis.FuncNode) bool) {
	for _, n := range g.Nodes {
		if _, inLP := tree[n]; !inLP || isExempt(n) {
			continue
		}
		node, pkg := n, n.Pkg
		ast.Inspect(n.Body, func(nd ast.Node) bool {
			switch x := nd.(type) {
			case *ast.FuncLit:
				return false // its own node — walked separately if reachable
			case *ast.AssignStmt:
				for _, lhs := range x.Lhs {
					checkWrite(pass, pkg, ann, tree, rootSite, node, lhs)
				}
			case *ast.IncDecStmt:
				checkWrite(pass, pkg, ann, tree, rootSite, node, x.X)
			case *ast.CallExpr:
				if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "delete" {
					if _, isBuiltin := pkg.TypesInfo.Uses[id].(*types.Builtin); isBuiltin && len(x.Args) > 0 {
						checkWrite(pass, pkg, ann, tree, rootSite, node, x.Args[0])
					}
				}
				if callee := calleeFunc(pkg, x); callee != nil {
					if a, ok := idx.coord[idx.nameOf(callee)]; ok {
						if !pass.IsTestFile(x.Pos()) {
							pass.Reportf(x.Pos(), "coordinator-phase function %s (declared at %s) called from LP context%s; coordinator phases run only between epochs, while every LP is quiesced",
								callee.Name(), shortPos(pass, a.pos), witness(pass, tree, rootSite, node))
						}
					}
				}
			}
			return true
		})
	}
}

// checkWrite reports a write to //lint:shared or coordinator-owned state
// from LP context. The lvalue is stripped down through index, slice, paren,
// and star expressions to the base selector or identifier.
func checkWrite(pass *analysis.Pass, pkg *analysis.Package, ann *ownership, tree map[*analysis.FuncNode]*analysis.FuncNode, rootSite map[*analysis.FuncNode]token.Pos, node *analysis.FuncNode, lhs ast.Expr) {
	for {
		switch x := ast.Unparen(lhs).(type) {
		case *ast.IndexExpr:
			lhs = x.X
			continue
		case *ast.SliceExpr:
			lhs = x.X
			continue
		case *ast.StarExpr:
			lhs = x.X
			continue
		}
		break
	}
	var v *types.Var
	var name string
	switch x := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		v, _ = pkg.TypesInfo.Uses[x.Sel].(*types.Var)
		name = types.ExprString(x)
	case *ast.Ident:
		v, _ = pkg.TypesInfo.Uses[x].(*types.Var)
		name = x.Name
	default:
		return
	}
	if v == nil {
		return
	}
	a, ok := ann.state[v]
	if !ok || pass.IsTestFile(lhs.Pos()) {
		return
	}
	switch a.class {
	case classShared:
		pass.Reportf(lhs.Pos(), "write to //lint:shared state %s (annotated at %s) from LP context%s; shared state is frozen once the clock starts — mutate it during setup or reclassify it",
			name, shortPos(pass, a.pos), witness(pass, tree, rootSite, node))
	case classCoordinator:
		pass.Reportf(lhs.Pos(), "write to coordinator-owned state %s (annotated at %s) from LP context%s; only the coordinator may mutate it, between epochs — route the update through LP.Send or a coordinator phase",
			name, shortPos(pass, a.pos), witness(pass, tree, rootSite, node))
	}
}

func calleeFunc(pkg *analysis.Package, call *ast.CallExpr) *types.Func {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := pkg.TypesInfo.Uses[fn].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := pkg.TypesInfo.Uses[fn.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Remote-handle dataflow.

func checkRemoteHandles(pass *analysis.Pass, ann *ownership, idx *funcIndex, srcFields map[*types.Var]string, isExempt func(*analysis.FuncNode) bool) {
	prog := pass.Prog
	analysis.RunDataflow(prog, pass.Graph, analysis.DataflowSpec{
		SourceFacts: func(pkg *analysis.Package, e ast.Expr) []analysis.Fact {
			switch x := e.(type) {
			case *ast.SelectorExpr:
				if v, ok := pkg.TypesInfo.Uses[x.Sel].(*types.Var); ok {
					if _, annotated := srcFields[v]; annotated {
						return []analysis.Fact{{Label: "remote", Pos: x.Pos()}}
					}
				}
			case *ast.CallExpr:
				if fn := calleeFunc(pkg, x); fn != nil && idx.source[idx.nameOf(fn)] {
					return []analysis.Fact{{Label: "remote", Pos: x.Pos()}}
				}
			}
			return nil
		},
		IsSanitizer: func(fn *types.Func) bool {
			name := idx.nameOf(fn)
			return idx.san[name] || idx.boundary[name]
		},
		SkipBody: isExempt,
		ExprSink: func(pkg *analysis.Package, e ast.Expr) []analysis.Sink {
			sel, ok := e.(*ast.SelectorExpr)
			if !ok {
				return nil
			}
			v, ok := pkg.TypesInfo.Uses[sel.Sel].(*types.Var)
			if !ok {
				return nil
			}
			if a, ok := ann.state[v]; ok && a.class == classLP {
				return []analysis.Sink{{Expr: sel.X, Kind: "lp-owned field", Detail: types.ExprString(sel)}}
			}
			return nil
		},
		CallSink: func(pkg *analysis.Package, call *ast.CallExpr) []analysis.Sink {
			recvPath, recvType, name, sel, ok := analysis.CallMethod(pkg.TypesInfo, call)
			if !ok {
				return nil
			}
			table, ok := schedSinks[recvPath]
			if !ok {
				return nil
			}
			kind, ok := table[recvType+"."+name]
			if !ok {
				return nil
			}
			return []analysis.Sink{{Expr: sel.X, Kind: kind, Detail: types.ExprString(call)}}
		},
		Report: func(fn *analysis.FuncNode, f analysis.Fact, hit analysis.SinkHit) {
			if f.Label != "remote" || pass.IsTestFile(hit.Pos) {
				return
			}
			msg := fmt.Sprintf("possibly-remote handle (obtained at %s) reaches %s %s — Env-affine state of another LP; route the wakeup through LP.Send / a //lint:owner(boundary) channel, or pin it with a same-Env //lint:sanitizer lpowner accessor",
				shortPos(pass, f.Pos), hit.Kind, hit.Detail)
			if len(hit.Chain) > 0 {
				msg += "; call chain: " + fn.Name + " → " + strings.Join(hit.Chain, " → ")
			}
			pass.Reportf(hit.Pos, "%s", msg)
		},
	})
}

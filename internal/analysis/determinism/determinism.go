// Package determinism keeps simulator runs bit-reproducible. Outside the
// engine it rejects every way the host can leak into a run: wall-clock
// reads, unseeded math/rand draws, real concurrency (go statements, bare
// channels, sync and sync/atomic, real timers), and map iteration order
// reaching emitted output.
//
// The invariants (internal/sim/sim.go): no component of the simulator may
// consult the wall clock, and at most one goroutine — the engine loop or
// exactly one Proc — executes at a time, with the handoff owned by the
// engine. Virtual time comes from sim.Env.Now, randomness from sim.Env.Rand
// (seeded per run), concurrency from sim.Proc (Proc.Arm/Await for a wait on
// one completion), sim.Queue, sim.Signal, sim.Mutex and Env.Schedule, and
// every exporter iterates slices in event order.
//
// One table lists the forbidden APIs, each with the packages its rule
// exempts. The engine alone owns the clock and the seeded source. Real
// concurrency is also allowed in par, the fan-out shim that runs
// independent experiment cells (each a whole, isolated Env) on OS threads,
// and in sim/shard, the coordinator that advances whole Envs on par.Gang
// workers.
package determinism

import (
	"go/ast"
	"go/types"
	"strings"

	"vread/internal/analysis"
)

// Analyzer is the determinism checker.
var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc: "forbid wall-clock reads, unseeded math/rand, real concurrency and " +
		"map-range order reaching emitted output outside the engine " +
		"(bit-reproducibility and one-runnable-Proc invariants)",
	Run: run,
}

// rule is one way a run stops being reproducible, and the packages exempt
// from it.
type rule struct {
	allow map[string]bool
	// funcs limits an API rule to function references: a type mention like
	// *rand.Rand is the seeded idiom.
	funcs bool
	msg   string // follows the offending API or construct in the finding
}

var (
	clockPkgs       = map[string]bool{"vread/internal/sim": true}
	concurrencyPkgs = map[string]bool{
		"vread/internal/sim":       true,
		"vread/internal/sim/shard": true,
		"vread/internal/par":       true,
	}

	wallClock = &rule{allow: clockPkgs, msg: "consults the wall clock (determinism invariant); use sim.Env.Now for virtual time"}
	osRand    = &rule{allow: clockPkgs, funcs: true, msg: "draws from a source no run seed controls (determinism invariant); use the per-run sim.Env.Rand"}
	realConc  = &rule{allow: concurrencyPkgs, msg: "outside internal/sim is real concurrency that no seed reproduces (one-runnable-Proc invariant); use sim.Env.Go, sim.Queue, sim.Signal, sim.Mutex or Env.Schedule"}
	mapOrder  = &rule{allow: clockPkgs, msg: "inside a map-range loop leaks map iteration order into emitted output (determinism invariant); iterate a sorted slice of keys instead"}
)

// forbidden is the forbidden-API table, keyed by import path (every name in
// the package) or path.Name. A path.Name entry beats its package's entry,
// and a nil one exempts the name.
var forbidden = map[string]*rule{
	"time.Now": wallClock, "time.Since": wallClock, "time.Until": wallClock, "time.Sleep": wallClock,

	"math/rand": osRand, "math/rand.New": nil, "math/rand.NewSource": nil, "math/rand.NewZipf": nil,
	"math/rand/v2": osRand,

	"time.NewTimer": realConc, "time.NewTicker": realConc, "time.Tick": realConc,
	"time.After": realConc, "time.AfterFunc": realConc,
	"sync.Mutex": realConc, "sync.RWMutex": realConc, "sync.WaitGroup": realConc, "sync.Cond": realConc,
	"sync.Map": realConc, "sync.Once": realConc, "sync.Locker": realConc, "sync.Pool": realConc,
	"sync/atomic": realConc,
}

func run(pass *analysis.Pass) error {
	for _, pkg := range pass.Prog.Pkgs {
		for _, f := range pkg.Files {
			if !pass.IsTestFile(f.Pos()) {
				checkFile(pass, pkg, f)
			}
		}
	}
	for _, n := range pass.Graph.Nodes {
		if !mapOrder.allow[n.Pkg.Path] && !pass.IsTestFile(n.Body.Pos()) {
			checkMapRanges(pass, n)
		}
	}
	return nil
}

func checkFile(pass *analysis.Pass, pkg *analysis.Package, f *ast.File) {
	report := func(n ast.Node, what string, r *rule) {
		if !r.allow[pkg.Path] {
			pass.Reportf(n.Pos(), "%s %s", what, r.msg)
		}
	}
	info := pkg.TypesInfo
	ast.Inspect(f, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.GoStmt:
			report(v, "raw go statement", realConc)
		case *ast.SendStmt:
			report(v, "bare channel send", realConc)
		case *ast.CallExpr:
			if fn, ok := ast.Unparen(v.Fun).(*ast.Ident); ok && fn.Name == "make" && len(v.Args) > 0 {
				if _, isChan := v.Args[0].(*ast.ChanType); isChan {
					report(v, "bare channel make", realConc)
				}
			}
		case *ast.SelectorExpr:
			path, name, ok := analysis.PkgFunc(info, v)
			if !ok {
				return true
			}
			r, named := forbidden[path+"."+name]
			if !named {
				r = forbidden[path]
			}
			if _, isFunc := info.Uses[v.Sel].(*types.Func); r != nil && (isFunc || !r.funcs) {
				report(v, path+"."+name, r)
			}
		}
		return true
	})
}

// checkMapRanges flags map-range loops in one function body (a nested
// literal is a node of its own) whose bodies feed emitted output: either a
// direct write/encode call, or an append into a slice declared outside the
// loop that is never sorted in the same function.
func checkMapRanges(pass *analysis.Pass, fn *analysis.FuncNode) {
	info := fn.Pkg.TypesInfo
	var ranges []*ast.RangeStmt
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit != fn.Lit {
			return false // nested literal is its own root
		}
		if r, ok := n.(*ast.RangeStmt); ok && analysis.IsMap(info, r.X) {
			ranges = append(ranges, r)
		}
		return true
	})

	var appended []*ast.Ident // slices declared outside a loop, appended inside
	for _, r := range ranges {
		ast.Inspect(r.Body, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.CallExpr:
				if sel, ok := ast.Unparen(v.Fun).(*ast.SelectorExpr); ok && isOutputCall(sel) {
					pass.Reportf(v.Pos(), "%s %s", callName(info, sel), mapOrder.msg)
				}
			case *ast.AssignStmt:
				if id := outerAppend(info, r, v); id != nil {
					appended = append(appended, id)
				}
			}
			return true
		})
	}
	for _, id := range appended {
		if !sortedIn(info, fn.Body, id) {
			pass.Reportf(id.Pos(), "append to %q inside a map-range loop captures map iteration order, breaking byte-identical runs (determinism invariant); sort %q before it is used, or collect and sort the keys first", id.Name, id.Name)
		}
	}
}

// outerAppend returns v in `v = append(v, ...)` when v is declared outside
// the range loop r; a loop-local accumulator is harmless.
func outerAppend(info *types.Info, r *ast.RangeStmt, as *ast.AssignStmt) *ast.Ident {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return nil
	}
	lhs, ok := as.Lhs[0].(*ast.Ident)
	if !ok {
		return nil
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return nil
	}
	if fn, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || fn.Name != "append" {
		return nil
	}
	obj := info.ObjectOf(lhs)
	if obj == nil || obj.Pos() == 0 || (obj.Pos() >= r.Pos() && obj.Pos() <= r.End()) {
		return nil
	}
	return lhs
}

// sortedIn reports whether the variable is passed to a sort or slices sort
// call anywhere in the function — the sanctioned collect-then-sort idiom.
func sortedIn(info *types.Info, body *ast.BlockStmt, target *ast.Ident) bool {
	obj := info.ObjectOf(target)
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		path, name, ok := analysis.PkgFunc(info, sel)
		if !ok || !isSort(path, name) {
			return true
		}
		for _, arg := range call.Args {
			if id := analysis.RootIdent(arg); id != nil && info.ObjectOf(id) == obj {
				found = true
			}
		}
		return !found
	})
	return found
}

func isSort(path, name string) bool {
	switch path {
	case "slices":
		return strings.Contains(name, "Sort")
	case "sort":
		switch name {
		case "Strings", "Ints", "Float64s", "Slice", "SliceStable", "Stable", "Sort":
			return true
		}
	}
	return false
}

// isOutputCall reports a Write*/Encode/Fprint*/Print* call: iteration order
// reaching an encoder or writer.
func isOutputCall(sel *ast.SelectorExpr) bool {
	name := sel.Sel.Name
	if strings.HasPrefix(name, "Write") {
		return true
	}
	switch name {
	case "Encode", "Fprint", "Fprintf", "Fprintln", "Print", "Printf", "Println":
		return true
	}
	return false
}

func callName(info *types.Info, sel *ast.SelectorExpr) string {
	if path, name, ok := analysis.PkgFunc(info, sel); ok {
		return path + "." + name
	}
	return sel.Sel.Name
}

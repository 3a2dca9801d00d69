// Package simdiscipline enforces that all concurrency flows through the
// deterministic engine: outside internal/sim there must be no raw go
// statements, no sync primitives, no bare channels, and no real timers.
//
// The invariant (internal/sim/sim.go): at most one goroutine — the engine
// loop or exactly one Proc — executes at a time, with the handoff owned by
// the engine. A raw `go` statement or a sync.Mutex outside the engine
// reintroduces scheduler nondeterminism that no seed can reproduce;
// sim.Proc (with Proc.Arm/Await for a wait on one completion), sim.Queue,
// sim.Signal, sim.Mutex and Env.Schedule are the sanctioned equivalents.
package simdiscipline

import (
	"go/ast"
	"go/types"

	"vread/internal/analysis"
)

// Analyzer is the sim-discipline checker.
var Analyzer = &analysis.Analyzer{
	Name: "simdiscipline",
	Doc: "forbid raw goroutines, sync primitives, bare channels and real " +
		"timers outside internal/sim (one-runnable-Proc invariant)",
	Run: run,
}

// allowedPkgs may use real concurrency: the engine implements the Proc
// handoff protocol on iter.Pull coroutines; par is the one fan-out
// shim that runs independent experiment cells (each a whole, isolated Env)
// on real OS threads; and sim/shard is the parallel coordinator that
// advances whole Envs on par.Gang workers under conservative lookahead —
// its barrier protocol is exactly the kind of real concurrency the
// analyzer exists to keep out of simulation code.
var allowedPkgs = map[string]bool{
	"vread/internal/sim":       true,
	"vread/internal/sim/shard": true,
	"vread/internal/par":       true,
}

// syncTypes are the sync identifiers whose mere mention marks real
// concurrency.
var syncTypes = map[string]bool{
	"Mutex": true, "RWMutex": true, "WaitGroup": true, "Cond": true,
	"Map": true, "Once": true, "Locker": true, "Pool": true,
}

// timerFuncs are the time package entry points that arm real timers.
var timerFuncs = map[string]bool{
	"NewTimer": true, "NewTicker": true, "Tick": true, "After": true,
	"AfterFunc": true,
}

func run(pass *analysis.Pass) error {
	for _, pkg := range pass.Prog.Pkgs {
		if allowedPkgs[pkg.Path] {
			continue
		}
		for _, f := range pkg.Files {
			if !pass.IsTestFile(f.Pos()) {
				checkFile(pass, pkg.TypesInfo, f)
			}
		}
	}
	return nil
}

func checkFile(pass *analysis.Pass, info *types.Info, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.GoStmt:
			pass.Reportf(v.Pos(), "raw go statement outside internal/sim breaks the one-runnable-Proc invariant (sim-discipline); start simulated processes with sim.Env.Go")
		case *ast.SendStmt:
			pass.Reportf(v.Pos(), "bare channel send outside internal/sim bypasses the engine's deterministic handoff (sim-discipline invariant); use sim.Queue or sim.Signal")
		case *ast.CallExpr:
			checkCall(pass, v)
		case *ast.SelectorExpr:
			checkSelector(pass, info, v)
		}
		return true
	})
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	fn, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || fn.Name != "make" || len(call.Args) == 0 {
		return
	}
	if _, isChan := call.Args[0].(*ast.ChanType); isChan {
		pass.Reportf(call.Pos(), "bare channel make outside internal/sim bypasses the engine's deterministic handoff (sim-discipline invariant); use sim.NewQueue or sim.NewSignal")
	}
}

func checkSelector(pass *analysis.Pass, info *types.Info, sel *ast.SelectorExpr) {
	path, name, ok := analysis.PkgFunc(info, sel)
	if !ok {
		// Not a pkg.Name selector; could still be a type mention like
		// sync.Mutex in a field list, which PkgFunc already covers (PkgName
		// resolution works for types too).
		return
	}
	switch {
	case path == "sync" && syncTypes[name]:
		pass.Reportf(sel.Pos(), "sync.%s outside internal/sim introduces real scheduler nondeterminism (sim-discipline invariant); use the simulated primitives (sim.Mutex, sim.Signal, sim.Queue)", name)
	case path == "sync/atomic":
		pass.Reportf(sel.Pos(), "sync/atomic.%s outside internal/sim introduces real scheduler nondeterminism (sim-discipline invariant); the simulator is single-threaded by construction — plain operations suffice", name)
	case path == "time" && timerFuncs[name]:
		pass.Reportf(sel.Pos(), "time.%s arms a real timer outside internal/sim, racing the virtual clock (sim-discipline invariant); schedule virtual-time callbacks with sim.Env.Schedule", name)
	}
}

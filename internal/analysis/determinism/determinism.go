// Package determinism flags wall-clock reads, unseeded global math/rand use,
// and map-iteration order escaping into emitted output — the three ways a
// simulator run stops being bit-reproducible.
//
// The invariant (internal/sim/sim.go): "No component of the simulator may
// consult the wall clock." Virtual time comes from sim.Env.Now, randomness
// from sim.Env.Rand (seeded per run), and every exporter iterates slices in
// event order. The engine package itself is allowlisted: it owns the
// time.Duration clock and the seeded rand.Rand everyone else must use.
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
	Doc: "forbid wall-clock reads, unseeded math/rand, and map-range order " +
		"reaching emitted output (bit-reproducibility invariant)",
	Run: run,
}

// allowedPkgs are engine internals that implement the virtual clock and the
// seeded random source.
var allowedPkgs = map[string]bool{
	"vread/internal/sim": true,
}

// wallClockFuncs are the time package functions that read the wall clock.
// Timers and tickers are the simdiscipline analyzer's department.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
}

// seededCtors are the math/rand entry points that do not touch the global
// source.
var seededCtors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
}

// outputMethods are method names whose call inside a map-range body means
// iteration order reaches an encoder or writer.
var outputMethods = map[string]bool{
	"Encode": true, "Fprint": true, "Fprintf": true, "Fprintln": true,
	"Print": true, "Printf": true, "Println": true,
}

func run(pass *analysis.Pass) error {
	for _, pkg := range pass.Prog.Pkgs {
		if allowedPkgs[pkg.Path] {
			continue
		}
		for _, f := range pkg.Files {
			if pass.IsTestFile(f.Pos()) {
				continue
			}
			checkCalls(pass, pkg.TypesInfo, f)
			checkMapRanges(pass, pkg.TypesInfo, f)
		}
	}
	return nil
}

func checkCalls(pass *analysis.Pass, info *types.Info, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		path, name, ok := analysis.PkgFunc(info, sel)
		if !ok {
			return true
		}
		// Only function references draw from the clock or the global
		// source; type mentions like *rand.Rand are the seeded idiom.
		if _, isFunc := info.Uses[sel.Sel].(*types.Func); !isFunc {
			return true
		}
		switch {
		case path == "time" && wallClockFuncs[name]:
			pass.Reportf(sel.Pos(), "time.%s consults the wall clock, violating the determinism invariant (sim.go: no component of the simulator may consult the wall clock); use sim.Env.Now for virtual time", name)
		case path == "math/rand" && !seededCtors[name]:
			pass.Reportf(sel.Pos(), "math/rand.%s draws from the global unseeded source, so runs stop being bit-reproducible (determinism invariant); use the per-run sim.Env.Rand", name)
		case path == "math/rand/v2":
			pass.Reportf(sel.Pos(), "math/rand/v2.%s is seeded from the OS, so runs stop being bit-reproducible (determinism invariant); use the per-run sim.Env.Rand", name)
		}
		return true
	})
}

// checkMapRanges flags map-range loops whose bodies feed emitted output:
// either a direct write/encode call, or an append into a slice declared
// outside the loop that is never subsequently sorted in the same function.
func checkMapRanges(pass *analysis.Pass, info *types.Info, f *ast.File) {
	for _, fb := range analysis.FuncBodies(f) {
		checkBodyMapRanges(pass, info, fb)
	}
}

func checkBodyMapRanges(pass *analysis.Pass, info *types.Info, fb analysis.FuncBody) {
	type cand struct {
		rng    *ast.RangeStmt
		target *ast.Ident // the appended-to variable
	}
	var cands []cand

	var ranges []*ast.RangeStmt
	ast.Inspect(fb.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit != fb.Lit {
			return false // nested literal is its own root
		}
		if r, ok := n.(*ast.RangeStmt); ok && analysis.IsMap(info, r.X) {
			ranges = append(ranges, r)
		}
		return true
	})

	for _, r := range ranges {
		ast.Inspect(r.Body, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			switch v := n.(type) {
			case *ast.CallExpr:
				if sel, ok := ast.Unparen(v.Fun).(*ast.SelectorExpr); ok {
					if isOutputCall(info, sel) {
						pass.Reportf(v.Pos(), "%s inside a map-range loop leaks map iteration order into emitted output, breaking byte-identical runs (determinism invariant); iterate a sorted slice of keys instead", callName(info, sel))
					}
				}
			case *ast.AssignStmt:
				// v = append(v, ...) where v is declared outside the loop.
				if len(v.Lhs) != 1 || len(v.Rhs) != 1 {
					return true
				}
				lhs, ok := v.Lhs[0].(*ast.Ident)
				if !ok {
					return true
				}
				call, ok := v.Rhs[0].(*ast.CallExpr)
				if !ok {
					return true
				}
				if fn, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || fn.Name != "append" {
					return true
				}
				obj := info.ObjectOf(lhs)
				if obj == nil || obj.Pos() == 0 {
					return true
				}
				if obj.Pos() >= r.Pos() && obj.Pos() <= r.End() {
					return true // loop-local accumulator; harmless
				}
				cands = append(cands, cand{rng: r, target: lhs})
			}
			return true
		})
	}

	for _, c := range cands {
		if sortedAfter(info, fb, c.target) {
			continue
		}
		pass.Reportf(c.target.Pos(), "append to %q inside a map-range loop captures map iteration order, breaking byte-identical runs (determinism invariant); sort %q before it is used, or collect and sort the keys first", c.target.Name, c.target.Name)
	}
}

// sortedAfter reports whether the variable is passed to a sort/slices sort
// call anywhere in the function — the sanctioned collect-then-sort idiom.
func sortedAfter(info *types.Info, fb analysis.FuncBody, target *ast.Ident) bool {
	obj := info.ObjectOf(target)
	found := false
	ast.Inspect(fb.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return !found
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return !found
		}
		path, name, ok := analysis.PkgFunc(info, sel)
		if !ok || (path != "sort" && path != "slices") {
			return !found
		}
		if !strings.Contains(name, "Sort") && !isSortHelper(path, name) {
			return !found
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

func isSortHelper(path, name string) bool {
	if path != "sort" {
		return false
	}
	switch name {
	case "Strings", "Ints", "Float64s", "Slice", "SliceStable", "Stable":
		return true
	}
	return false
}

func isOutputCall(info *types.Info, sel *ast.SelectorExpr) bool {
	name := sel.Sel.Name
	if strings.HasPrefix(name, "Write") || outputMethods[name] {
		// Package-level fmt.Fprint* / method Write*/Encode on anything.
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

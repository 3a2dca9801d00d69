// Package unitflow enforces the simulator's unit discipline between its
// three scalar currencies: CPU cycles (the `*Cycles` config fields and
// everything derived from them), byte counts (`*Bytes` fields), and
// simulated time (time.Duration). The type system separates Duration from
// int64 but not cycles from bytes, so this analyzer tracks units by
// dataflow:
//
//   - a cycles-carrying value must not be converted straight to
//     time.Duration — only the canonical converters, annotated
//     //lint:converter unitflow(reason), may cross that boundary
//     (their bodies are exempt from the rules; that is where the one
//     legitimate conversion lives);
//   - a byte count must not mix into cycle arithmetic (+ - % *) except
//     through the blessed bytes × cyclesPerKB idiom, which yields cycles;
//   - a byte-carrying value must not be passed where a callee declares a
//     `cycles` parameter.
//
// Units seed from names: integer fields, constants, and variables ending in
// Cycles are cycles, ending in CyclesPerKB are rates, ending in Bytes are
// byte counts; calls to functions named *Cycles or *CyclesFor yield cycles.
package unitflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"

	"vread/internal/analysis"
)

// Analyzer is the unit-discipline invariant.
var Analyzer = &analysis.Analyzer{
	Name: "unitflow",
	Doc:  "cycles must reach simulated time only through //lint:converter unitflow helpers; byte counts must not mix into cycle arithmetic",
	Run:  run,
}

var (
	rateName   = regexp.MustCompile(`[Cc]yclesPerKB$`)
	cyclesName = regexp.MustCompile(`[Cc]ycles(For)?$`)
	bytesName  = regexp.MustCompile(`[Bb]ytes$`)
)

func run(pass *analysis.Pass) error {
	prog := pass.Prog
	badDirective := func(pos token.Pos, msg string) { pass.Reportf(pos, "%s", msg) }
	converters := analysis.AnnotatedFuncs(prog, "converter", "unitflow", badDirective)

	analysis.RunDataflow(prog, pass.Graph, analysis.DataflowSpec{
		SourceFacts: func(pkg *analysis.Package, e ast.Expr) []analysis.Fact {
			switch x := e.(type) {
			case *ast.CallExpr:
				if fn := staticCallee(pkg, x); fn != nil {
					if _, isConv := converters[fn.Origin()]; isConv {
						// A declared converter's result is the unit its
						// signature says — Duration results are typed, and
						// cycles results are covered by the name rule below.
						if cyclesName.MatchString(fn.Name()) {
							return []analysis.Fact{{Label: "cycles", Pos: x.Pos()}}
						}
						return nil
					}
					if !rateName.MatchString(fn.Name()) && cyclesName.MatchString(fn.Name()) {
						return []analysis.Fact{{Label: "cycles", Pos: x.Pos()}}
					}
				}
				return nil
			case *ast.Ident:
				return unitOfObj(resolve(pkg, x), e.Pos())
			case *ast.SelectorExpr:
				return unitOfObj(pkg.TypesInfo.Uses[x.Sel], e.Pos())
			}
			return nil
		},
		SkipBody: func(n *analysis.FuncNode) bool {
			if n.Obj == nil {
				return false
			}
			_, ok := converters[n.Obj]
			return ok
		},
		ExprSink: func(pkg *analysis.Package, e ast.Expr) []analysis.Sink {
			call, ok := e.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return nil
			}
			if !isDurationConversion(pkg, call) {
				return nil
			}
			return []analysis.Sink{{Expr: call.Args[0], Kind: "duration-conv", Detail: types.ExprString(call)}}
		},
		CallSink: func(pkg *analysis.Package, call *ast.CallExpr) []analysis.Sink {
			fn := staticCallee(pkg, call)
			if fn == nil {
				return nil
			}
			sig, ok := fn.Type().(*types.Signature)
			if !ok {
				return nil
			}
			var out []analysis.Sink
			for i := 0; i < sig.Params().Len() && i < len(call.Args); i++ {
				if cyclesName.MatchString(sig.Params().At(i).Name()) && !rateName.MatchString(sig.Params().At(i).Name()) {
					out = append(out, analysis.Sink{Expr: call.Args[i], Kind: "cycles-param", Detail: fn.Name()})
				}
			}
			return out
		},
		OnBinary: onBinary,
		Report: func(fn *analysis.FuncNode, f analysis.Fact, hit analysis.SinkHit) {
			if pass.IsTestFile(hit.Pos) {
				return
			}
			switch {
			case hit.Kind == "duration-conv" && f.Label == "cycles":
				pass.Reportf(hit.Pos, "cycle count converted directly to time.Duration in %s; go through a //lint:converter unitflow helper (cpusched.CPU.DurFor)", hit.Detail)
			case hit.Kind == "cycles-param" && f.Label == "bytes":
				pass.Reportf(hit.Pos, "byte count passed as the cycles argument of %s; convert with a cycles-per-KB helper first", hit.Detail)
			case hit.Kind == "unit-mix":
				pass.Reportf(hit.Pos, "%s", hit.Detail)
			}
		},
	})
	return nil
}

// resolve returns the object an identifier uses or defines.
func resolve(pkg *analysis.Package, id *ast.Ident) types.Object {
	if obj := pkg.TypesInfo.Uses[id]; obj != nil {
		return obj
	}
	return pkg.TypesInfo.Defs[id]
}

// unitOfObj maps a named integer variable or constant to its unit fact.
func unitOfObj(obj types.Object, pos token.Pos) []analysis.Fact {
	if obj == nil {
		return nil
	}
	switch obj.(type) {
	case *types.Var, *types.Const:
	default:
		return nil
	}
	basic, ok := obj.Type().Underlying().(*types.Basic)
	if !ok || basic.Info()&(types.IsInteger|types.IsUntyped) == 0 {
		return nil
	}
	name := obj.Name()
	switch {
	case rateName.MatchString(name):
		return []analysis.Fact{{Label: "rate", Pos: pos}}
	case cyclesName.MatchString(name):
		return []analysis.Fact{{Label: "cycles", Pos: pos}}
	case bytesName.MatchString(name):
		return []analysis.Fact{{Label: "bytes", Pos: pos}}
	}
	return nil
}

func staticCallee(pkg *analysis.Package, call *ast.CallExpr) *types.Func {
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

// isDurationConversion reports whether call converts its operand to
// time.Duration.
func isDurationConversion(pkg *analysis.Package, call *ast.CallExpr) bool {
	var obj types.Object
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = pkg.TypesInfo.Uses[fn]
	case *ast.SelectorExpr:
		obj = pkg.TypesInfo.Uses[fn.Sel]
	default:
		return false
	}
	tn, ok := obj.(*types.TypeName)
	if !ok || tn.Pkg() == nil {
		return false
	}
	return tn.Pkg().Path() == "time" && tn.Name() == "Duration"
}

// unitOf extracts the unit label of one operand's facts ("" when unitless).
func unitOf(facts []analysis.Fact) (string, analysis.Fact) {
	for _, f := range facts {
		switch f.Label {
		case "cycles", "bytes", "rate":
			return f.Label, f
		}
	}
	return "", analysis.Fact{}
}

// onBinary is the unit algebra. It returns the facts of the combined value
// and, when the combination itself is the defect, the violation message.
func onBinary(pkg *analysis.Package, be *ast.BinaryExpr, x, y []analysis.Fact) ([]analysis.Fact, string) {
	ux, fx := unitOf(x)
	uy, fy := unitOf(y)
	keep := func(u string) []analysis.Fact {
		switch u {
		case ux:
			return []analysis.Fact{fx}
		case uy:
			return []analysis.Fact{fy}
		}
		return nil
	}
	mixed := (ux == "bytes" && uy == "cycles") || (ux == "cycles" && uy == "bytes")
	switch be.Op {
	case token.ADD, token.SUB, token.REM:
		if mixed {
			return keep("cycles"), "byte count mixed into cycle arithmetic without an explicit conversion; multiply through a cyclesPerKB rate or a //lint:converter unitflow helper"
		}
		if ux != "" {
			return keep(ux), ""
		}
		return keep(uy), ""
	case token.MUL:
		if (ux == "bytes" && uy == "rate") || (ux == "rate" && uy == "bytes") {
			// The blessed idiom: bytes × cyclesPerKB (/1024) = cycles.
			return []analysis.Fact{{Label: "cycles", Pos: be.OpPos}}, ""
		}
		if mixed {
			return keep("cycles"), "byte count multiplied into cycle arithmetic without an explicit conversion; multiply through a cyclesPerKB rate or a //lint:converter unitflow helper"
		}
		if ux != "" {
			return keep(ux), ""
		}
		return keep(uy), ""
	case token.QUO:
		// bytes/1024 stays bytes, cycles/freq stays cycles; dividing two
		// like units cancels; deriving a rate is legitimate — no report.
		if ux == uy {
			return nil, ""
		}
		return keep(ux), ""
	case token.SHL, token.SHR, token.AND, token.OR, token.XOR, token.AND_NOT:
		return keep(ux), ""
	case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ, token.LAND, token.LOR:
		return nil, ""
	}
	return keep(ux), ""
}

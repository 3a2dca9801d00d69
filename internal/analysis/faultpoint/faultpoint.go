// Package faultpoint cross-checks the fault-injection registry against its
// use, program-wide. The contract it enforces (DESIGN.md §10):
//
//   - every faultpoint registered in the faults package's Points() list is
//     evaluated (Plan.Should / Plan.ShouldDelay) at least once, in the layer
//     its name prefix declares (disk.* in storage or core, net.*/rdma.* in
//     netsim, ring.*/daemon.*/mount.* in core, rack.* in cluster, shard.* in
//     hdfs, domain.* in netsim);
//   - every registered point is armed by at least one test — a fixture that
//     names the point, as a string (possibly inside a spec string) or
//     through its constant;
//   - no evaluation names an undeclared point (a typo in the constant or a
//     point that was removed but not its evaluation site);
//   - every declared dotted-name string constant in the faults package is
//     registered in Points() (declaring without registering makes the point
//     unparsable in specs);
//   - every spec string literal handed to ParseSpec in a test parses under
//     the spec grammar, with point names drawn from the registered set.
//
// The grammar check reimplements ParseSpec's syntax locally on purpose: the
// real parser validates names against the real, compiled-in point list,
// while the analyzer must validate fixture specs against the *analyzed*
// program's declarations.
package faultpoint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"path"
	"strconv"
	"strings"
	"time"

	"vread/internal/analysis"
)

// Analyzer is the faultpoint registry cross-checker.
var Analyzer = &analysis.Analyzer{
	Name: "faultpoint",
	Doc: "cross-check fault-injection points: declared ⇔ evaluated in the " +
		"owning layer ⇔ armed by a test; spec literals in tests must parse",
	Run: run,
}

// layerTable maps a point-name prefix to the package base names allowed to
// evaluate it. Prefixes absent from the table are exempt from the layer
// check (but still need evaluation and arming).
var layerTable = []struct {
	prefix string
	pkgs   []string
}{
	{"disk.", []string{"core", "storage"}},
	{"net.", []string{"netsim"}},
	{"rdma.", []string{"netsim"}},
	{"ring.", []string{"core"}},
	{"daemon.", []string{"core"}},
	{"mount.", []string{"core"}},
	{"rack.", []string{"cluster"}},
	{"shard.", []string{"hdfs"}},
	{"domain.", []string{"netsim"}},
}

func allowedPkgs(point string) []string {
	for _, e := range layerTable {
		if strings.HasPrefix(point, e.prefix) {
			return e.pkgs
		}
	}
	return nil
}

// declPoint is one registered faultpoint.
type declPoint struct {
	name  string // constant identifier
	value string // the point string
	pos   token.Pos
}

func run(pass *analysis.Pass) error {
	fpkg := faultsPackage(pass.Prog)
	if fpkg == nil {
		return nil // program does not contain a fault registry
	}
	consts, registered := declarations(fpkg)

	declared := map[string]*declPoint{}
	var points []*declPoint
	for _, d := range consts {
		if !registered[d.name] {
			if looksLikePoint(d.value) {
				pass.Reportf(d.pos, "faultpoint constant %s = %q is not registered in Points(): specs naming it will not parse", d.name, d.value)
			}
			continue
		}
		declared[d.value] = d
		points = append(points, d)
	}

	evaled := map[string][]string{} // point value -> package base names that eval it
	for _, pkg := range pass.Prog.Pkgs {
		if pkg == fpkg {
			continue // ShouldDelay calls Should internally
		}
		checkEvals(pass, pkg, declared, evaled)
	}

	armed := armedPoints(pass.Prog, points)

	for _, d := range points {
		want := allowedPkgs(d.value)
		if bases := evaled[d.value]; len(bases) == 0 {
			pass.Reportf(d.pos, "faultpoint %s = %q is registered but never evaluated: no layer calls Should/ShouldDelay with it", d.name, d.value)
		} else if want != nil && !intersects(bases, want) {
			pass.Reportf(d.pos, "faultpoint %s = %q is never evaluated in its declared layer (want one of: %s; evaluated in: %s)",
				d.name, d.value, strings.Join(want, ", "), strings.Join(bases, ", "))
		}
		if !armed[d.value] {
			pass.Reportf(d.pos, "faultpoint %s = %q has no arming test: no test file names it in a spec, string, or constant", d.name, d.value)
		}
	}

	checkSpecLiterals(pass, declared)
	return nil
}

// faultsPackage finds the program's fault registry: the package with base
// name "faults" that declares a Points function.
func faultsPackage(prog *analysis.Program) *analysis.Package {
	for _, pkg := range prog.Pkgs {
		if path.Base(pkg.Path) != "faults" {
			continue
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.Name == "Points" {
					return pkg
				}
			}
		}
	}
	return nil
}

// declarations collects the faults package's top-level string constants and
// the set of constant names registered through the Points() return literal.
func declarations(fpkg *analysis.Package) ([]*declPoint, map[string]bool) {
	var consts []*declPoint
	registered := map[string]bool{}
	for _, f := range fpkg.Files {
		for _, d := range f.Decls {
			switch v := d.(type) {
			case *ast.GenDecl:
				if v.Tok != token.CONST {
					continue
				}
				for _, spec := range v.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok || len(vs.Names) != len(vs.Values) {
						continue
					}
					for i, name := range vs.Names {
						lit, ok := vs.Values[i].(*ast.BasicLit)
						if !ok || lit.Kind != token.STRING {
							continue
						}
						val, err := strconv.Unquote(lit.Value)
						if err != nil {
							continue
						}
						consts = append(consts, &declPoint{name: name.Name, value: val, pos: name.Pos()})
					}
				}
			case *ast.FuncDecl:
				if v.Recv != nil || v.Name.Name != "Points" || v.Body == nil {
					continue
				}
				ast.Inspect(v.Body, func(n ast.Node) bool {
					if cl, ok := n.(*ast.CompositeLit); ok {
						for _, el := range cl.Elts {
							if id, ok := el.(*ast.Ident); ok {
								registered[id.Name] = true
							}
						}
					}
					return true
				})
			}
		}
	}
	return consts, registered
}

// looksLikePoint reports whether a string constant has the dotted-name shape
// of a faultpoint ("layer.thing.mode"); other string constants in the faults
// package are none of this analyzer's business.
func looksLikePoint(s string) bool {
	if strings.Count(s, ".") < 1 || strings.ContainsAny(s, " \t\n:;,=") || s == "" {
		return false
	}
	for _, part := range strings.Split(s, ".") {
		if part == "" {
			return false
		}
	}
	return true
}

// checkEvals finds every Plan.Should / Plan.ShouldDelay call in one package,
// validates the argument against the declared set and the layer table, and
// records which package evaluated which point.
func checkEvals(pass *analysis.Pass, pkg *analysis.Package, declared map[string]*declPoint, evaled map[string][]string) {
	base := path.Base(pkg.Path)
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			recvPath, recvType, method, _, ok := analysis.CallMethod(pkg.TypesInfo, call)
			if !ok || recvType != "Plan" || path.Base(recvPath) != "faults" {
				return true
			}
			if method != "Should" && method != "ShouldDelay" {
				return true
			}
			if len(call.Args) != 1 {
				return true
			}
			tv, ok := pkg.TypesInfo.Types[call.Args[0]]
			if ok && tv.Value != nil && tv.Value.Kind() != constant.String {
				return true // not a faultpoint name; other overloads don't exist
			}
			if !ok || tv.Value == nil {
				pass.Reportf(call.Args[0].Pos(), "faultpoint name passed to %s is not a constant: the declared⇔evaluated cross-check cannot see it", method)
				return true
			}
			val := constant.StringVal(tv.Value)
			d, ok := declared[val]
			if !ok {
				pass.Reportf(call.Args[0].Pos(), "faultpoint %q is not declared in the faults registry (Points())", val)
				return true
			}
			if want := allowedPkgs(d.value); want != nil && !contains(want, base) {
				pass.Reportf(call.Pos(), "faultpoint %q belongs to the %s* layer and must not be evaluated in package %s (allowed: %s)",
					val, d.value[:strings.Index(d.value, ".")+1], base, strings.Join(want, ", "))
			}
			if !contains(evaled[val], base) {
				evaled[val] = append(evaled[val], base)
			}
			return true
		})
	}
}

// armedPoints scans every test file (in-package and external, parse-only)
// for mentions of each point: its string value inside any string literal, or
// its constant name as a bare or selected identifier.
func armedPoints(prog *analysis.Program, points []*declPoint) map[string]bool {
	armed := map[string]bool{}
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.TestFiles {
			ast.Inspect(f, func(n ast.Node) bool {
				switch v := n.(type) {
				case *ast.BasicLit:
					if v.Kind != token.STRING {
						return true
					}
					s, err := strconv.Unquote(v.Value)
					if err != nil {
						return true
					}
					for _, d := range points {
						if strings.Contains(s, d.value) {
							armed[d.value] = true
						}
					}
				case *ast.Ident:
					for _, d := range points {
						if v.Name == d.name {
							armed[d.value] = true
						}
					}
				}
				return true
			})
		}
	}
	return armed
}

// checkSpecLiterals validates every string literal passed directly to a
// ParseSpec call in a test file against the spec grammar and the declared
// point set. Specs built in variables or helpers are out of reach — and
// deliberately so: the table-driven negative tests in the faults package
// keep their invalid specs in tables.
func checkSpecLiterals(pass *analysis.Pass, declared map[string]*declPoint) {
	for _, pkg := range pass.Prog.Pkgs {
		for _, f := range pkg.TestFiles {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return true
				}
				var name string
				switch fn := ast.Unparen(call.Fun).(type) {
				case *ast.Ident:
					name = fn.Name
				case *ast.SelectorExpr:
					name = fn.Sel.Name
				}
				if name != "ParseSpec" {
					return true
				}
				lit, ok := literalString(call.Args[0])
				if !ok {
					return true
				}
				if err := validateSpec(lit, declared); err != "" {
					pass.Reportf(call.Args[0].Pos(), "spec literal does not parse: %s", err)
				}
				return true
			})
		}
	}
}

// literalString evaluates an expression made only of string literals and
// `+` concatenations.
func literalString(e ast.Expr) (string, bool) {
	switch v := ast.Unparen(e).(type) {
	case *ast.BasicLit:
		if v.Kind != token.STRING {
			return "", false
		}
		s, err := strconv.Unquote(v.Value)
		return s, err == nil
	case *ast.BinaryExpr:
		if v.Op != token.ADD {
			return "", false
		}
		l, ok1 := literalString(v.X)
		r, ok2 := literalString(v.Y)
		return l + r, ok1 && ok2
	}
	return "", false
}

// validateSpec is the local reimplementation of the ParseSpec grammar:
//
//	point[:opt,...][;point[:opt,...]]...
//	opt = p=<float> | prob=<float> | after=<int> | max=<int> | delay=<duration>
//
// It returns "" on success or a description of the first problem.
func validateSpec(s string, declared map[string]*declPoint) string {
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, opts, _ := strings.Cut(part, ":")
		name = strings.TrimSpace(name)
		if name == "" {
			return "empty faultpoint name in " + strconv.Quote(part)
		}
		if _, ok := declared[name]; !ok {
			return "unknown faultpoint " + strconv.Quote(name)
		}
		if opts == "" {
			continue
		}
		for _, opt := range strings.Split(opts, ",") {
			key, val, ok := strings.Cut(strings.TrimSpace(opt), "=")
			if !ok {
				return "bad option " + strconv.Quote(opt) + " in rule " + strconv.Quote(part)
			}
			var err error
			switch key {
			case "p", "prob":
				_, err = strconv.ParseFloat(val, 64)
			case "after", "max":
				_, err = strconv.ParseInt(val, 10, 64)
			case "delay":
				_, err = time.ParseDuration(val)
			default:
				return "unknown option " + strconv.Quote(key) + " in rule " + strconv.Quote(part)
			}
			if err != nil {
				return "bad " + key + " value in rule " + strconv.Quote(part)
			}
		}
	}
	return ""
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func intersects(a, b []string) bool {
	for _, x := range a {
		if contains(b, x) {
			return true
		}
	}
	return false
}

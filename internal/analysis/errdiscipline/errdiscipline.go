// Package errdiscipline enforces the simulator's error-matching discipline:
//
//   - errors are compared with errors.Is, never ==/!=. The core read path
//     wraps its typed set (ErrDaemonFailed, ErrShortRead, ErrBadRange, …)
//     with %w as failures propagate up the stack, so an == against a
//     sentinel silently stops matching the moment anyone adds context;
//   - in the core package — the layer that owns the typed set and the
//     retry boundary (retryableRead walks errors with errors.Is) — every
//     error an exported function fabricates with fmt.Errorf must wrap a
//     cause or a typed sentinel with %w. The rule extends to *all*
//     functions in lib.go and remote.go, exported or not: those files sit
//     on the retry path, and an unwrappable error there reclassifies a
//     retryable failure as permanent.
//
// Comparisons against nil are, of course, fine.
package errdiscipline

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"path"
	"strings"

	"vread/internal/analysis"
)

// Analyzer is the error-discipline checker.
var Analyzer = &analysis.Analyzer{
	Name: "errdiscipline",
	Doc: "compare errors with errors.Is, not ==; core's exported and " +
		"retry-boundary functions must return typed or %w-wrapped errors",
	Run: run,
}

// retryFiles are the core files on the retry path, where the wrap rule
// applies to unexported functions too.
var retryFiles = map[string]bool{"lib.go": true, "remote.go": true}

func run(pass *analysis.Pass) error {
	for _, pkg := range pass.Prog.Pkgs {
		checkComparisons(pass, pkg)
		if path.Base(pkg.Path) == "core" {
			checkWrapping(pass, pkg)
		}
	}
	return nil
}

// checkComparisons flags ==/!= where both operands are error interfaces and
// neither is nil.
func checkComparisons(pass *analysis.Pass, pkg *analysis.Package) {
	for _, f := range pkg.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
				return true
			}
			if !isErrorExpr(pkg, be.X) || !isErrorExpr(pkg, be.Y) {
				return true
			}
			op := "=="
			if be.Op == token.NEQ {
				op = "!="
			}
			pass.Reportf(be.OpPos, "errors compared with %s never match once wrapped: use errors.Is(%s, %s)",
				op, types.ExprString(be.X), types.ExprString(be.Y))
			return true
		})
	}
}

// isErrorExpr reports whether e is a non-nil expression of the interface
// type error.
func isErrorExpr(pkg *analysis.Package, e ast.Expr) bool {
	tv, ok := pkg.TypesInfo.Types[ast.Unparen(e)]
	if !ok || tv.IsNil() {
		return false
	}
	return types.Identical(tv.Type, types.Universe.Lookup("error").Type())
}

// checkWrapping flags fmt.Errorf calls without %w inside functions the wrap
// rule covers: exported error-returning functions anywhere in the package,
// and every error-returning function in the retry-boundary files.
func checkWrapping(pass *analysis.Pass, pkg *analysis.Package) {
	for _, f := range pkg.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		base := path.Base(pass.Prog.Fset.Position(f.Pos()).Filename)
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !returnsError(pkg, fd) {
				continue
			}
			if !fd.Name.IsExported() && !retryFiles[base] {
				continue
			}
			where := "exported function " + fd.Name.Name
			if retryFiles[base] {
				where = fd.Name.Name + " in retry-boundary file " + base
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
				if !ok {
					return true
				}
				p, name, ok := analysis.PkgFunc(pkg.TypesInfo, sel)
				if !ok || p != "fmt" || name != "Errorf" || len(call.Args) == 0 {
					return true
				}
				tv, ok := pkg.TypesInfo.Types[call.Args[0]]
				if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
					return true
				}
				if strings.Contains(constant.StringVal(tv.Value), "%w") {
					return true
				}
				pass.Reportf(call.Pos(), "fmt.Errorf without %%w in %s: callers cannot errors.Is the result — wrap the cause or a typed sentinel (errors.go)",
					where)
				return true
			})
		}
	}
}

// returnsError reports whether the function's last result is error.
func returnsError(pkg *analysis.Package, fd *ast.FuncDecl) bool {
	if fd.Type.Results == nil || len(fd.Type.Results.List) == 0 {
		return false
	}
	last := fd.Type.Results.List[len(fd.Type.Results.List)-1]
	t := pkg.TypesInfo.TypeOf(last.Type)
	return t != nil && types.Identical(t, types.Universe.Lookup("error").Type())
}

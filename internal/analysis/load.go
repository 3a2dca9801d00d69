package analysis

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// Package is one parsed, type-checked package ready for analysis.
type Package struct {
	Path      string
	Dir       string
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	Standard   bool
	DepOnly    bool
	Export     string
	GoFiles    []string
	Error      *struct{ Err string }
}

// Load enumerates the packages matching patterns with `go list -export
// -deps` (run in dir), then parses and type-checks every non-dependency
// match. Dependencies — including the standard library — are imported from
// their compiled export data, so loading needs no network and no
// pre-installed tooling beyond the go command itself.
func Load(dir string, patterns []string) ([]*Package, error) {
	exports := map[string]string{}
	targets, err := goList(dir, patterns, exports)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	imp := ExportImporter(fset, dir, exports)
	var pkgs []*Package
	for _, t := range targets {
		if t.Error != nil {
			return nil, fmt.Errorf("%s: %s", t.ImportPath, t.Error.Err)
		}
		pkg, err := Check(fset, imp, t.ImportPath, t.Dir, absJoin(t.Dir, t.GoFiles))
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// goList runs `go list -export -deps` over patterns in dir, records every
// listed package's export data file in exports, and returns the packages
// that matched (neither dependencies nor the standard library).
func goList(dir string, patterns []string, exports map[string]string) ([]*listPkg, error) {
	args := append([]string{"list", "-e", "-export", "-deps", "-json=ImportPath,Dir,Standard,DepOnly,Export,GoFiles,Error", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v", err)
	}
	var targets []*listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %v", err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard {
			targets = append(targets, &p)
		}
	}
	return targets, nil
}

// ExportImporter returns a types.Importer that resolves import paths through
// the compiled export data files named in exports. A path missing there is
// listed, with its dependencies, by go list in dir ("" for the working
// directory) and added to exports.
func ExportImporter(fset *token.FileSet, dir string, exports map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if _, ok := exports[path]; !ok {
			if _, err := goList(dir, []string{path}, exports); err != nil {
				return nil, err
			}
		}
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})
}

// Check parses the named files and type-checks them as one package.
func Check(fset *token.FileSet, imp types.Importer, path, dir string, files []string) (*Package, error) {
	var parsed []*ast.File
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		parsed = append(parsed, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, parsed, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %v", path, err)
	}
	return &Package{Path: path, Dir: dir, Fset: fset, Files: parsed, Types: tpkg, TypesInfo: info}, nil
}

func absJoin(dir string, names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		if filepath.IsAbs(n) {
			out[i] = n
		} else {
			out[i] = filepath.Join(dir, n)
		}
	}
	return out
}

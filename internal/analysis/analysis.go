// Package analysis is a small, dependency-free re-implementation of the
// go/analysis vocabulary (Analyzer, Pass, Diagnostic) plus the machinery the
// vread-lint suite shares: a go-list-driven package loader, a //lint:allow
// suppression index, and helpers for resolving calls against type
// information.
//
// The suite exists because the simulator's core invariants — bit-reproducible
// runs, all concurrency through sim.Proc, trace contexts threaded through
// every layer — live in comments and code review otherwise, where go test
// does not reach them. Each analyzer turns one of those comments into a
// build break, and all/mutations.txt records a defect only it catches.
package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// Analyzer is one named invariant checker. Every analyzer sees the whole
// loaded program plus its call graph: the ones that check one file at a time
// simply loop over Prog.Pkgs, the interprocedural ones walk the graph.
type Analyzer struct {
	// Name is the analyzer's identifier, used in -run filters and in
	// //lint:allow directives.
	Name string
	// Doc describes the invariant the analyzer enforces.
	Doc string
	// Run inspects the program and reports findings through the pass.
	Run func(*Pass) error
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// ReportVersion identifies the lint-report.json schema. Bump it whenever a
// field is added, removed, or reordered, so report diffs across PRs are
// attributable to findings rather than format drift. Version 2 added the
// per-analyzer timing rows.
const ReportVersion = 2

// AnalyzerTiming is one analyzer's wall-clock cost and surviving finding
// count for the report's timing rows.
type AnalyzerTiming struct {
	Analyzer string `json:"analyzer"`
	Millis   int64  `json:"ms"`
	Findings int    `json:"findings"`
}

// reportDiagnostic is a Diagnostic's report row, in its fixed field order.
type reportDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// MarshalReport renders the versioned lint report: a fixed-field-order
// object wrapping the timing and diagnostics arrays, one row per line. The
// diagnostics must already be sorted (RunSuite output is); their bytes are
// identical on every run over the same tree, which is what lets CI diff
// lint-report.json artifacts across builds — the golden test pins them. The
// timing rows are the report's one wall-clock-dependent part (their ms
// values vary run to run, their order and fields do not).
func MarshalReport(diags []Diagnostic, timings []AnalyzerTiming) []byte {
	rows := make([]reportDiagnostic, len(diags))
	for i, d := range diags {
		rows[i] = reportDiagnostic{d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message}
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "{\"version\":%d,\n\"timings\":", ReportVersion)
	writeRows(&b, timings)
	b.WriteString(",\n\"diagnostics\":")
	writeRows(&b, rows)
	b.WriteString("\n}\n")
	return b.Bytes()
}

// writeRows writes rows as a JSON array with one object per line.
func writeRows[T any](b *bytes.Buffer, rows []T) {
	enc := json.NewEncoder(b)
	enc.SetEscapeHTML(false)
	b.WriteString("[")
	for i, r := range rows {
		if i > 0 {
			b.WriteString(",")
		}
		b.WriteString("\n  ")
		_ = enc.Encode(r)       // strings and integers always encode
		b.Truncate(b.Len() - 1) // Encode's newline: the separator comes first
	}
	if len(rows) > 0 {
		b.WriteString("\n")
	}
	b.WriteString("]")
}

// ---------------------------------------------------------------------------
// The //lint: directive grammar.

// directiveRx matches the one //lint: grammar: a bare //lint:hotpath, or
// //lint:<kind> <analyzer>(<reason>) for every other kind. A kind written
// without its analyzer(reason) is not a directive.
var directiveRx = regexp.MustCompile(`^//\s*lint:(?:(hotpath)|(allow|sanitizer|source|converter)\s+([A-Za-z0-9_-]+)\s*\(([^)]*)\))`)

// Directive is one parsed //lint: comment.
type Directive struct {
	Kind     string // "allow", "sanitizer", "source", "converter" or "hotpath"
	Analyzer string // empty for hotpath
	Reason   string // space-trimmed; empty for hotpath
	Pos      token.Pos
}

// Directives parses the //lint: directives of the comment groups, in order.
// Nil groups are skipped.
func Directives(groups ...*ast.CommentGroup) []Directive {
	var out []Directive
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			if m := directiveRx.FindStringSubmatch(c.Text); m != nil {
				// One of m[1] (hotpath) and m[2] (the other kinds) is empty.
				out = append(out, Directive{Kind: m[1] + m[2], Analyzer: m[3], Reason: strings.TrimSpace(m[4]), Pos: c.Pos()})
			}
		}
	}
	return out
}

// Annotated collects every function (by its doc comment) and struct field
// (by its doc or line comment) in the program that carries a //lint:<kind>
// <analyzer>(reason) directive, mapped to the reason. A directive with an
// empty reason is reported through report instead: the reason is the review
// trail.
func Annotated(prog *Program, kind, analyzer string, report func(pos token.Pos, msg string)) map[types.Object]string {
	out := make(map[types.Object]string)
	for _, pkg := range prog.Pkgs {
		mark := func(names []*ast.Ident, groups ...*ast.CommentGroup) {
			for _, d := range Directives(groups...) {
				if d.Kind != kind || d.Analyzer != analyzer {
					continue
				}
				if d.Reason == "" {
					report(d.Pos, fmt.Sprintf("lint:%s %s() needs a reason: write //lint:%s %s(why)", kind, analyzer, kind, analyzer))
					continue
				}
				for _, name := range names {
					if obj := pkg.TypesInfo.Defs[name]; obj != nil {
						out[obj] = d.Reason
					}
				}
			}
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					mark([]*ast.Ident{n.Name}, n.Doc)
				case *ast.StructType:
					for _, field := range n.Fields.List {
						mark(field.Names, field.Doc, field.Comment)
					}
				}
				return true
			})
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Running analyzers with suppression.

// allowDirective is one //lint:allow comment: its claim (analyzer, file, the
// two lines it covers) plus whether any diagnostic actually hit it — the
// input to the stale-suppression report.
type allowDirective struct {
	analyzer string
	pos      token.Position
	used     bool
}

// suppressions indexes //lint:allow directives by analyzer, file, and line.
type suppressions struct {
	byKey      map[string]map[string]map[int]*allowDirective
	directives []*allowDirective // in comment order
}

// buildSuppressions indexes every //lint:allow directive in the files. A
// directive suppresses findings of the named analyzer on its own line and on
// the line immediately below (so it works both as a trailing comment and as
// a standalone comment above the offending statement). Directives with an
// empty reason are returned as diagnostics instead.
func buildSuppressions(fset *token.FileSet, files []*ast.File) (*suppressions, []Diagnostic) {
	sup := &suppressions{byKey: map[string]map[string]map[int]*allowDirective{}}
	var bad []Diagnostic
	for _, f := range files {
		for _, dir := range Directives(f.Comments...) {
			if dir.Kind != "allow" {
				continue
			}
			pos := fset.Position(dir.Pos)
			if dir.Reason == "" {
				bad = append(bad, Diagnostic{
					Analyzer: "lint",
					Pos:      pos,
					Message:  fmt.Sprintf("lint:allow %s() needs a reason: write //lint:allow %s(why this is safe)", dir.Analyzer, dir.Analyzer),
				})
				continue
			}
			d := &allowDirective{analyzer: dir.Analyzer, pos: pos}
			sup.directives = append(sup.directives, d)
			byFile := sup.byKey[d.analyzer]
			if byFile == nil {
				byFile = map[string]map[int]*allowDirective{}
				sup.byKey[d.analyzer] = byFile
			}
			lines := byFile[pos.Filename]
			if lines == nil {
				lines = map[int]*allowDirective{}
				byFile[pos.Filename] = lines
			}
			lines[pos.Line] = d
			lines[pos.Line+1] = d
		}
	}
	return sup, bad
}

// suppressed reports whether a //lint:allow for d's analyzer covers d's line,
// and marks that directive used.
func (s *suppressions) suppressed(d Diagnostic) bool {
	dir := s.byKey[d.Analyzer][d.Pos.Filename][d.Pos.Line]
	if dir == nil {
		return false
	}
	dir.used = true
	return true
}

// unused returns a diagnostic for every directive naming one of the ran
// analyzers that suppressed nothing — a stale //lint:allow whose finding has
// since been fixed. Directives naming an analyzer that did not run are
// skipped: their staleness cannot be judged.
func (s *suppressions) unused(ran map[string]bool) []Diagnostic {
	var out []Diagnostic
	for _, d := range s.directives {
		if d.used || !ran[d.analyzer] {
			continue
		}
		out = append(out, Diagnostic{
			Analyzer: "unused-allow",
			Pos:      d.pos,
			Message:  fmt.Sprintf("stale suppression: no %s finding on this line anymore; delete the //lint:allow", d.analyzer),
		})
	}
	return out
}

// ---------------------------------------------------------------------------
// Type-resolution helpers shared by the analyzers.

// PkgFunc resolves a call/selector of the form pkg.Name where pkg is an
// imported package, returning the package path and function name. ok is
// false for method calls, locals, and anything else.
func PkgFunc(info *types.Info, sel *ast.SelectorExpr) (path, name string, ok bool) {
	id, isIdent := sel.X.(*ast.Ident)
	if !isIdent {
		return "", "", false
	}
	pn, isPkg := info.Uses[id].(*types.PkgName)
	if !isPkg {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

// CallMethod resolves a call's callee, when it is a method selector on a
// named type, to (receiver type package path, receiver type name, method
// name, the selector).
func CallMethod(info *types.Info, call *ast.CallExpr) (recvPath, recvType, name string, sel *ast.SelectorExpr, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", "", nil, false
	}
	fn, isFn := info.Uses[sel.Sel].(*types.Func)
	if !isFn {
		return "", "", "", nil, false
	}
	sig, isSig := fn.Type().(*types.Signature)
	if !isSig || sig.Recv() == nil {
		return "", "", "", nil, false
	}
	t := sig.Recv().Type()
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed || named.Obj().Pkg() == nil {
		return "", "", "", nil, false
	}
	return named.Obj().Pkg().Path(), named.Obj().Name(), fn.Name(), sel, true
}

// IsMap reports whether the expression has map type.
func IsMap(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	_, isMap := t.Underlying().(*types.Map)
	return isMap
}

// RootIdent returns the leftmost identifier of a selector/index/call chain
// (x in x.y[i].z), or nil.
func RootIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		case *ast.CallExpr:
			e = v.Fun
		default:
			return nil
		}
	}
}

// Package analysis is a small, dependency-free re-implementation of the
// go/analysis vocabulary (Analyzer, Pass, Diagnostic) plus the machinery the
// vread-lint suite shares: a go-list-driven package loader, a //lint:allow
// suppression index, and helpers for resolving calls against type
// information.
//
// The suite exists because the simulator's core invariants — bit-reproducible
// runs, all concurrency through sim.Proc, paired ring spinlocks, trace
// contexts threaded through every layer — live in comments and code review
// otherwise. Each analyzer turns one of those comments into a build break.
package analysis

import (
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
	Analyzer string
	Millis   int64
	Findings int
}

// MarshalReport renders the versioned lint report: a fixed-field-order
// object wrapping the timing and diagnostics arrays. The diagnostics bytes
// are identical on every run over the same tree — the golden test pins
// them; the timing rows are the report's one wall-clock-dependent part
// (their ms values vary run to run, their order and fields do not).
func MarshalReport(diags []Diagnostic, timings []AnalyzerTiming) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "{\"version\":%d,\n\"timings\":[", ReportVersion)
	for i, tr := range timings {
		if i > 0 {
			b.WriteString(",")
		}
		b.WriteString("\n  ")
		fmt.Fprintf(&b, `{"analyzer":%s,"ms":%d,"findings":%d}`,
			jsonString(tr.Analyzer), tr.Millis, tr.Findings)
	}
	if len(timings) > 0 {
		b.WriteString("\n")
	}
	b.WriteString("],\n\"diagnostics\":")
	b.Write(MarshalDiagnostics(diags))
	b.WriteString("}\n")
	return []byte(b.String())
}

// MarshalDiagnostics renders diagnostics as a JSON array with a fixed field
// order (file, line, col, analyzer, message) and one object per line. The
// input must already be sorted (RunSuite output is); given the
// same diagnostics the bytes are identical on every run, which is what lets
// CI diff lint-report.json artifacts across builds.
func MarshalDiagnostics(diags []Diagnostic) []byte {
	var b strings.Builder
	b.WriteString("[")
	for i, d := range diags {
		if i > 0 {
			b.WriteString(",")
		}
		b.WriteString("\n  ")
		fmt.Fprintf(&b, `{"file":%s,"line":%d,"col":%d,"analyzer":%s,"message":%s}`,
			jsonString(d.Pos.Filename), d.Pos.Line, d.Pos.Column,
			jsonString(d.Analyzer), jsonString(d.Message))
	}
	if len(diags) > 0 {
		b.WriteString("\n")
	}
	b.WriteString("]\n")
	return []byte(b.String())
}

// jsonString quotes s as a JSON string (the subset of escaping Go source
// positions and lint messages can contain).
func jsonString(s string) string {
	var b strings.Builder
	b.WriteByte('"')
	for _, r := range s {
		switch r {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\t':
			b.WriteString(`\t`)
		case '\r':
			b.WriteString(`\r`)
		default:
			if r < 0x20 {
				fmt.Fprintf(&b, `\u%04x`, r)
			} else {
				b.WriteRune(r)
			}
		}
	}
	b.WriteByte('"')
	return b.String()
}

// ---------------------------------------------------------------------------
// Running analyzers with suppression.

// allowRx matches //lint:allow <analyzer>(<reason>) directives. The reason
// is mandatory: a suppression with no recorded justification is itself a
// finding.
var allowRx = regexp.MustCompile(`^//\s*lint:allow\s+([A-Za-z0-9_-]+)\s*\(([^)]*)\)`)

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
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := allowRx.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				if strings.TrimSpace(m[2]) == "" {
					bad = append(bad, Diagnostic{
						Analyzer: "lint",
						Pos:      pos,
						Message:  fmt.Sprintf("lint:allow %s() needs a reason: write //lint:allow %s(why this is safe)", m[1], m[1]),
					})
					continue
				}
				d := &allowDirective{analyzer: m[1], pos: pos}
				sup.directives = append(sup.directives, d)
				byFile := sup.byKey[m[1]]
				if byFile == nil {
					byFile = map[string]map[int]*allowDirective{}
					sup.byKey[m[1]] = byFile
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

// Method resolves a method selector to (receiver type package path, receiver
// type name, method name). ok is false when sel is not a method on a named
// type.
func Method(info *types.Info, sel *ast.SelectorExpr) (recvPath, recvType, name string, ok bool) {
	fn, isFn := info.Uses[sel.Sel].(*types.Func)
	if !isFn {
		return "", "", "", false
	}
	sig, isSig := fn.Type().(*types.Signature)
	if !isSig || sig.Recv() == nil {
		return "", "", "", false
	}
	t := sig.Recv().Type()
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return "", "", "", false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return "", "", "", false
	}
	return obj.Pkg().Path(), obj.Name(), fn.Name(), true
}

// CallMethod is Method applied to a call expression's callee.
func CallMethod(info *types.Info, call *ast.CallExpr) (recvPath, recvType, name string, sel *ast.SelectorExpr, ok bool) {
	s, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", "", nil, false
	}
	recvPath, recvType, name, ok = Method(info, s)
	return recvPath, recvType, name, s, ok
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

package main

import (
	"encoding/json"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"vread/internal/analysis"
	"vread/internal/analysis/all"
)

// TestUnknownAnalyzerListingGolden pins the "have:" listing users see on a
// typo: all seven analyzers, sorted, so the list is scannable and adding an
// analyzer shows up here as a deliberate golden change.
func TestUnknownAnalyzerListingGolden(t *testing.T) {
	_, err := selectAnalyzers("nope")
	if err == nil {
		t.Fatal("selectAnalyzers accepted an unknown name")
	}
	const golden = `unknown analyzer "nope" (have: determinism, errdiscipline, guesttaint, hotalloc, lpowner, tracecharge, unitflow)`
	if err.Error() != golden {
		t.Fatalf("listing drifted from golden:\ngot  %s\nwant %s", err, golden)
	}
}

// TestProblemMatcher pins the CI problem matcher to Diagnostic.String: the
// matcher's regexp must pull file, line, column, code and message out of the
// text vread-lint prints, for an analyzer finding and for an unused-allow
// finding alike.
func TestProblemMatcher(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", ".github", "vread-lint-matcher.json"))
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		ProblemMatcher []struct {
			Owner   string
			Pattern []struct {
				Regexp                            string
				File, Line, Column, Code, Message int
			}
		}
	}
	if err := json.Unmarshal(raw, &cfg); err != nil {
		t.Fatalf("matcher is not valid JSON: %v", err)
	}
	if len(cfg.ProblemMatcher) != 1 || len(cfg.ProblemMatcher[0].Pattern) != 1 {
		t.Fatalf("want one matcher with one pattern, got %+v", cfg.ProblemMatcher)
	}
	pat := cfg.ProblemMatcher[0].Pattern[0]
	rx, err := regexp.Compile(pat.Regexp)
	if err != nil {
		t.Fatalf("matcher regexp does not compile: %v", err)
	}

	for _, d := range []analysis.Diagnostic{
		{Analyzer: "determinism", Pos: token.Position{Filename: "/src/vread/internal/core/core.go", Line: 42, Column: 7},
			Message: "time.Now consults the wall clock, violating the determinism invariant (sim.go: no component of the simulator may consult the wall clock); use sim.Env.Now for virtual time"},
		{Analyzer: "unused-allow", Pos: token.Position{Filename: "/src/vread/internal/sim/sim.go", Line: 107, Column: 19},
			Message: "stale suppression: no hotalloc finding on this line anymore; delete the //lint:allow"},
	} {
		m := rx.FindStringSubmatch(d.String())
		if m == nil {
			t.Errorf("matcher does not match %q", d.String())
			continue
		}
		got := map[string]string{"file": m[pat.File], "line": m[pat.Line], "column": m[pat.Column], "code": m[pat.Code], "message": m[pat.Message]}
		want := map[string]string{"file": d.Pos.Filename, "line": strconv.Itoa(d.Pos.Line), "column": strconv.Itoa(d.Pos.Column), "code": d.Analyzer, "message": d.Message}
		for k, w := range want {
			if got[k] != w {
				t.Errorf("%s: matcher captured %s = %q, want %q", d.Analyzer, k, got[k], w)
			}
		}
	}
}

// TestRunWritesReport drives one run end to end over this package: a clean
// tree exits 0, prints nothing, and still writes the versioned JSON report.
func TestRunWritesReport(t *testing.T) {
	report := filepath.Join(t.TempDir(), "lint-report.json")
	var stderr strings.Builder
	if code := run([]string{"-json", report, "."}, &stderr); code != 0 {
		t.Fatalf("exit %d on a clean package; stderr:\n%s", code, stderr.String())
	}
	if stderr.Len() != 0 {
		t.Errorf("clean run printed:\n%s", stderr.String())
	}
	raw, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Version     int
		Timings     []struct{ Analyzer string }
		Diagnostics []json.RawMessage
	}
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, raw)
	}
	if decoded.Version != analysis.ReportVersion || len(decoded.Diagnostics) != 0 || len(decoded.Timings) != len(all.Analyzers()) {
		t.Fatalf("report = version %d, %d diagnostics, %d timing rows; want version %d, 0, %d",
			decoded.Version, len(decoded.Diagnostics), len(decoded.Timings), analysis.ReportVersion, len(all.Analyzers()))
	}
}

// TestRunUsageErrors checks that bad invocations exit 2 with a message.
func TestRunUsageErrors(t *testing.T) {
	for _, args := range [][]string{{"-run", "nope", "."}, {"-list", "."}, {"-unused-allow", "."}} {
		var stderr strings.Builder
		if code := run(args, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if stderr.Len() == 0 {
			t.Errorf("%v: no message on stderr", args)
		}
	}
}

package analysis

import (
	"bytes"
	"encoding/json"
	"go/token"
	"testing"
)

// TestMarshalReportGolden pins the versioned report's exact bytes: the
// version field leads, the field order inside each diagnostic is fixed,
// `<`, `&` and non-ASCII text pass through unescaped while a control byte
// becomes \u00XX (the bytes the hand-written encoder that preceded
// encoding/json produced), and repeated marshals of the same input are
// identical. CI diffs lint-report.json artifacts across builds, so any
// drift here is a schema change and must come with a ReportVersion bump.
func TestMarshalReportGolden(t *testing.T) {
	diags := []Diagnostic{
		{Analyzer: "guesttaint", Pos: token.Position{Filename: "/repo/a.go", Line: 7, Column: 3}, Message: `tainted "x" hits sink`},
		{Analyzer: "unitflow", Pos: token.Position{Filename: "/repo/b.go", Line: 12, Column: 9}, Message: "bytes\nmixed"},
		{Analyzer: "unitflow", Pos: token.Position{Filename: "/repo/c.go", Line: 1, Column: 1}, Message: "a<b && café\x01"},
	}
	timings := []AnalyzerTiming{
		{Analyzer: "guesttaint", Millis: 42, Findings: 1},
		{Analyzer: "unitflow", Millis: 3, Findings: 2},
	}
	want := "{\"version\":2,\n\"timings\":[\n" +
		"  {\"analyzer\":\"guesttaint\",\"ms\":42,\"findings\":1},\n" +
		"  {\"analyzer\":\"unitflow\",\"ms\":3,\"findings\":2}\n" +
		"],\n\"diagnostics\":[\n" +
		"  {\"file\":\"/repo/a.go\",\"line\":7,\"col\":3,\"analyzer\":\"guesttaint\",\"message\":\"tainted \\\"x\\\" hits sink\"},\n" +
		"  {\"file\":\"/repo/b.go\",\"line\":12,\"col\":9,\"analyzer\":\"unitflow\",\"message\":\"bytes\\nmixed\"},\n" +
		"  {\"file\":\"/repo/c.go\",\"line\":1,\"col\":1,\"analyzer\":\"unitflow\",\"message\":\"a<b && café\\u0001\"}\n" +
		"]\n}\n"
	got := MarshalReport(diags, timings)
	if string(got) != want {
		t.Fatalf("report bytes drifted from golden:\ngot  %q\nwant %q", got, want)
	}
	if again := MarshalReport(diags, timings); !bytes.Equal(got, again) {
		t.Fatalf("marshal is not byte-stable:\nfirst  %q\nsecond %q", got, again)
	}

	var decoded struct {
		Version int `json:"version"`
		Timings []struct {
			Analyzer string `json:"analyzer"`
			Millis   int64  `json:"ms"`
			Findings int    `json:"findings"`
		} `json:"timings"`
		Diagnostics []struct {
			File     string `json:"file"`
			Line     int    `json:"line"`
			Col      int    `json:"col"`
			Analyzer string `json:"analyzer"`
			Message  string `json:"message"`
		} `json:"diagnostics"`
	}
	if err := json.Unmarshal(got, &decoded); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, got)
	}
	if decoded.Version != ReportVersion {
		t.Fatalf("version field = %d, want ReportVersion = %d", decoded.Version, ReportVersion)
	}
	if len(decoded.Diagnostics) != 3 || decoded.Diagnostics[1].Message != "bytes\nmixed" || decoded.Diagnostics[2].Message != diags[2].Message {
		t.Fatalf("diagnostics did not round-trip: %+v", decoded.Diagnostics)
	}
	if len(decoded.Timings) != 2 || decoded.Timings[0].Millis != 42 || decoded.Timings[1].Analyzer != "unitflow" {
		t.Fatalf("timing rows did not round-trip: %+v", decoded.Timings)
	}
}

func TestMarshalReportEmpty(t *testing.T) {
	want := "{\"version\":2,\n\"timings\":[],\n\"diagnostics\":[]\n}\n"
	if got := string(MarshalReport(nil, nil)); got != want {
		t.Fatalf("empty report = %q, want %q", got, want)
	}
}

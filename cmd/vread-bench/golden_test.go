package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"vread"
	"vread/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the current code")

// TestGolden pins every experiment's output at seed 1 and scale 0.01, byte
// for byte, in both formats: testdata/golden/<id>.csv as
// `vread-bench -exp <id> -scale 0.01 -format csv` prints it, and <id>.txt as
// `-format table` prints it. Concatenated in -exp all order the files of one
// format are exactly the output of `vread-bench -exp all -scale 0.01` in
// that format. Each render must also fire exactly the simulated event count
// testdata/golden/events.txt gives for its id, so an engine change that
// keeps every row but adds, drops or reorders wake-ups still fails here, and
// resume exactly as many Proc coroutines as testdata/golden/resumes.txt
// gives, so a change in how many events pay a coroutine switch shows as a
// diff of that file. After a deliberate change to a simulated result, refresh
// them with
//
//	go test ./cmd/vread-bench -run TestGolden -update
//
// and justify the diff.
func TestGolden(t *testing.T) {
	opt := vread.Options{Seed: 1, Scale: 0.01, VReadConfig: vread.VReadConfig{Transport: vread.TransportRDMA}}
	counts := []*countGolden{
		newCountGolden(t, "events.txt", "simulated events", (*experiments.RunStats).Events),
		newCountGolden(t, "resumes.txt", "Proc resumes", (*experiments.RunStats).Resumes),
	}
	for _, e := range vread.Experiments() {
		t.Run(e.ID, func(t *testing.T) {
			for _, f := range []struct {
				name, ext string
				csvOut    bool
			}{{"csv", ".csv", true}, {"table", ".txt", false}} {
				t.Run(f.name, func(t *testing.T) {
					o := opt
					o.Stats = &experiments.RunStats{}
					got, err := render(e, o, f.csvOut)
					if err != nil {
						t.Fatal(err)
					}
					checkGolden(t, filepath.Join("testdata", "golden", e.ID+f.ext), got)
					for _, c := range counts {
						c.check(t, e.ID, o.Stats)
					}
				})
			}
		})
	}
	if *update {
		for _, c := range counts {
			var b strings.Builder
			for _, e := range vread.Experiments() {
				if n, ok := c.want[e.ID]; ok {
					fmt.Fprintf(&b, "%s %d\n", e.ID, n)
				}
			}
			checkGolden(t, c.path, b.String())
		}
	}
}

// countGolden is one "<id> <count>" golden file: a per-experiment total
// read off the RunStats of a render.
type countGolden struct {
	path, what string
	get        func(*experiments.RunStats) int64
	want       map[string]int64
}

// newCountGolden loads testdata/golden/<file>; a missing file reads as
// empty, so -update can create it.
func newCountGolden(t *testing.T, file, what string, get func(*experiments.RunStats) int64) *countGolden {
	t.Helper()
	c := &countGolden{path: filepath.Join("testdata", "golden", file), what: what, get: get, want: map[string]int64{}}
	b, err := os.ReadFile(c.path)
	if os.IsNotExist(err) {
		return c
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		id, count, ok := strings.Cut(line, " ")
		n, err := strconv.ParseInt(count, 10, 64)
		if !ok || err != nil {
			t.Fatalf("%s: malformed line %q", c.path, line)
		}
		c.want[id] = n
	}
	return c
}

// check compares one render's count with the golden, or records it under
// -update.
func (c *countGolden) check(t *testing.T, id string, stats *experiments.RunStats) {
	t.Helper()
	n := c.get(stats)
	if *update {
		c.want[id] = n
	} else if want, ok := c.want[id]; !ok {
		t.Errorf("%s has no line for %s (run with -update to add it)", c.path, id)
	} else if n != want {
		t.Errorf("%d %s, %s pins %d", n, c.what, c.path, want)
	}
}

// checkGolden compares got with the golden file at path, or rewrites the
// file under -update.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s:\n%s", path, firstDiff(string(want), got))
	}
}

// firstDiff describes the first line where got departs from want.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return "line " + strconv.Itoa(i+1) + ":\n  want " + strconv.Quote(w) + "\n  got  " + strconv.Quote(g)
		}
	}
	return "(no line differs)"
}

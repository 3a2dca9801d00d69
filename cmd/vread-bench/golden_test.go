package main

import (
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"vread"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the current code")

// TestGolden pins every experiment's output at seed 1 and scale 0.01, byte
// for byte, in both formats: testdata/golden/<id>.csv as
// `vread-bench -exp <id> -scale 0.01 -format csv` prints it, and <id>.txt as
// `-format table` prints it. Concatenated in -exp all order the files of one
// format are exactly the output of `vread-bench -exp all -scale 0.01` in
// that format. After a deliberate change to a simulated result, refresh them
// with
//
//	go test ./cmd/vread-bench -run TestGolden -update
//
// and justify the diff.
func TestGolden(t *testing.T) {
	opt := vread.Options{Seed: 1, Scale: 0.01, Transport: vread.TransportRDMA}
	for _, e := range vread.Experiments() {
		t.Run(e.ID, func(t *testing.T) {
			for _, f := range []struct {
				name, ext string
				csvOut    bool
			}{{"csv", ".csv", true}, {"table", ".txt", false}} {
				t.Run(f.name, func(t *testing.T) {
					got, err := render(e, opt, f.csvOut)
					if err != nil {
						t.Fatal(err)
					}
					checkGolden(t, filepath.Join("testdata", "golden", e.ID+f.ext), got)
				})
			}
		})
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

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const testSpec = `{"workloads": [{"name": "w"}],
 "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}],
 "per_layer": [{"name": "sim.events", "unit": "count", "better": "lower"}]}`

// writeRuns writes one untraced result per seed with wall_s = walls[i].
func writeRuns(t *testing.T, dir string, walls ...float64) {
	t.Helper()
	for i, w := range walls {
		r := map[string]any{
			"workload": "w", "seed": i + 1, "trace": false, "correct": true,
			"metrics": map[string]any{"wall_s": map[string]any{"value": w, "unit": "s"}},
		}
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("w.seed%d.json", i+1)), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCompareExitsOnRegression(t *testing.T) {
	root := t.TempDir()
	spec := filepath.Join(root, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(testSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	parent, same, slower := filepath.Join(root, "p"), filepath.Join(root, "s"), filepath.Join(root, "c")
	for _, d := range []string{parent, same, slower} {
		if err := os.Mkdir(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	writeRuns(t, parent, 1.00, 1.02, 0.98, 1.01, 0.99)
	writeRuns(t, same, 1.01, 1.00, 0.99, 1.02, 0.98)
	writeRuns(t, slower, 1.40, 1.42, 1.38, 1.41, 1.39)

	var out, errOut strings.Builder
	if code := mainErr([]string{"-spec", spec, parent, same}, &out, &errOut); code != 0 || !strings.Contains(out.String(), "unchanged") {
		t.Errorf("same runs: exit %d, output\n%s%s", code, out.String(), errOut.String())
	}
	out.Reset()
	if code := mainErr([]string{"-spec", spec, parent, slower}, &out, &errOut); code != 1 || !strings.Contains(out.String(), "regressed") {
		t.Errorf("slower runs: exit %d, output\n%s%s", code, out.String(), errOut.String())
	}
}

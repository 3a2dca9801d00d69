package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the current code")

// checkGolden compares got byte for byte with testdata/golden/<name>. After
// a deliberate change to a simulated result, refresh the files with
//
//	go test ./internal/experiments -run 'TestScaleSmoke|TestShardGridCountInvariance' -update
//
// and justify the diff.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
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
		t.Errorf("output differs from %s:\n--- want ---\n%s--- got ---\n%s", path, want, got)
	}
}

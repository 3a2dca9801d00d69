package main

import (
	"embed"
	"errors"
	"fmt"
	"io/fs"
	"strings"
)

// expectedFS holds the simulated rows each workload must produce for the
// seeds that have a file; -update rewrites them.
//
//go:embed expected
var expectedFS embed.FS

// expectedPath is where -update writes, relative to the repository root
// (bench/run.sh runs the benchmark from there).
func expectedPath(workload string, seed int64) string {
	return "bench/" + expectedName(workload, seed)
}

func expectedName(workload string, seed int64) string {
	return fmt.Sprintf("expected/%s.seed%d.txt", workload, seed)
}

// loadExpected returns the expected rows by cell label, or nil when the seed
// has no file.
func loadExpected(workload string, seed int64) (map[string]string, error) {
	b, err := expectedFS.ReadFile(expectedName(workload, seed))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return parseExpected(string(b))
}

// parseExpected splits a pass rendering ("== <label>" then the cell's rows)
// back into cells.
func parseExpected(text string) (map[string]string, error) {
	cells := make(map[string]string)
	label := ""
	for _, line := range strings.SplitAfter(text, "\n") {
		if line == "" {
			continue
		}
		if l, ok := strings.CutPrefix(line, "== "); ok {
			label = strings.TrimSuffix(l, "\n")
			cells[label] = ""
			continue
		}
		if label == "" {
			return nil, fmt.Errorf("expected rows: row before the first cell label: %q", line)
		}
		cells[label] += line
	}
	return cells, nil
}

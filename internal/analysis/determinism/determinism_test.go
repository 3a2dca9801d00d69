package determinism_test

import (
	"testing"

	"vread/internal/analysis/analysistest"
	"vread/internal/analysis/determinism"
)

// TestDeterminism covers the clock, rand and map-order rules.
func TestDeterminism(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), determinism.Analyzer,
		"detfix", "vread/internal/sim", "vread/internal/par")
}

// TestSimDiscipline covers the concurrency rules and their wider allow set:
// the engine, the par shim and the shard coordinator.
func TestSimDiscipline(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), determinism.Analyzer,
		"simfix", "shardfix", "vread/internal/sim", "vread/internal/sim/shard", "vread/internal/par")
}

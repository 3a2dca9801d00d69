package lockorder_test

import (
	"testing"

	"vread/internal/analysis/analysistest"
	"vread/internal/analysis/lockorder"
)

func TestLockOrder(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), lockorder.Analyzer, "ordfix")
}

// TestLockPair runs the leak check: every Lock released on all return paths.
func TestLockPair(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), lockorder.Analyzer, "lockfix")
}

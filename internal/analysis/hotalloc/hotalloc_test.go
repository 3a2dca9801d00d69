package hotalloc_test

import (
	"testing"

	"vread/internal/analysis/analysistest"
	"vread/internal/analysis/hotalloc"
)

func TestHotalloc(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), hotalloc.Analyzer, "hotfix", "hothelper")
}

// TestHotallocColdBoundaryAudit checks that a cold boundary some hot path
// reaches counts as a used //lint:allow, and one no hot path reaches is
// reported stale.
func TestHotallocColdBoundaryAudit(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), hotalloc.Analyzer, "hotcold")
}

package analysis_test

import (
	"testing"

	"vread/internal/analysis/analysistest"
	"vread/internal/analysis/simdiscipline"
)

// TestSuppressionFullPath is the regression fixture for suppression keying:
// supa/util.go and supb/util.go share a basename and hold the same violation
// on the same line number, but only supa carries a //lint:allow. The want in
// supb must still be claimed — a basename-keyed index would suppress it.
//
// supc proves the external-test-package variant of Pass.IsTestFile: its only
// file has a package clause ending in _test but is not named *_test.go, and
// its violation must not be reported at all.
func TestSuppressionFullPath(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), simdiscipline.Analyzer,
		"supa", "supb", "supc")
}

// TestUnusedAllow drives the stale-suppression report every run includes:
// allowfix holds one used allow (silent), one stale allow for the ran
// analyzer (reported), and one allow for an analyzer that did not run
// (skipped — its staleness cannot be judged).
func TestUnusedAllow(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), simdiscipline.Analyzer, "allowfix")
}

// Package all registers the complete vread-lint analyzer suite.
package all

import (
	"vread/internal/analysis"
	"vread/internal/analysis/determinism"
	"vread/internal/analysis/errdiscipline"
	"vread/internal/analysis/faultpoint"
	"vread/internal/analysis/guesttaint"
	"vread/internal/analysis/hotalloc"
	"vread/internal/analysis/lockorder"
	"vread/internal/analysis/lpowner"
	"vread/internal/analysis/simdiscipline"
	"vread/internal/analysis/tracecharge"
	"vread/internal/analysis/unitflow"
)

// Analyzers returns the full suite in stable order: the analyzers that check
// one file at a time first, then the interprocedural ones.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		determinism.Analyzer,
		simdiscipline.Analyzer,
		tracecharge.Analyzer,
		hotalloc.Analyzer,
		lockorder.Analyzer,
		faultpoint.Analyzer,
		errdiscipline.Analyzer,
		guesttaint.Analyzer,
		unitflow.Analyzer,
		lpowner.Analyzer,
	}
}

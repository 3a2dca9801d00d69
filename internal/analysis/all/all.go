// Package all registers the complete vread-lint analyzer suite. Every
// analyzer in it has at least one entry in mutations.txt: a defect it flags
// that go test ./... lets through.
package all

import (
	"vread/internal/analysis"
	"vread/internal/analysis/determinism"
	"vread/internal/analysis/errdiscipline"
	"vread/internal/analysis/guesttaint"
	"vread/internal/analysis/hotalloc"
	"vread/internal/analysis/tracecharge"
	"vread/internal/analysis/unitflow"
)

// Analyzers returns the full suite in stable order: the analyzers that check
// one file at a time first, then the interprocedural ones.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		determinism.Analyzer,
		tracecharge.Analyzer,
		hotalloc.Analyzer,
		errdiscipline.Analyzer,
		guesttaint.Analyzer,
		unitflow.Analyzer,
	}
}

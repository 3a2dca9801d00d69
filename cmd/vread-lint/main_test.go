package main

import (
	"testing"
)

// TestUnknownAnalyzerListingGolden pins the "have:" listing users see on a
// typo: all ten analyzers, sorted, so the list is scannable and adding an
// analyzer shows up here as a deliberate golden change.
func TestUnknownAnalyzerListingGolden(t *testing.T) {
	_, err := selectAnalyzers("nope")
	if err == nil {
		t.Fatal("selectAnalyzers accepted an unknown name")
	}
	const golden = `unknown analyzer "nope" (have: determinism, errdiscipline, faultpoint, guesttaint, hotalloc, lockorder, lpowner, simdiscipline, tracecharge, unitflow)`
	if err.Error() != golden {
		t.Fatalf("listing drifted from golden:\ngot  %s\nwant %s", err, golden)
	}
}

// TestVetModeSkipsProgramAnalyzers checks the vet-protocol path cleanly
// drops the whole-program analyzers — vet hands the tool one package at a
// time, so anything needing the cross-package call graph cannot run there —
// and keeps every per-package one.
func TestVetModeSkipsProgramAnalyzers(t *testing.T) {
	suite, err := selectAnalyzers("")
	if err != nil {
		t.Fatal(err)
	}
	kept := map[string]bool{}
	for _, a := range perPackage(suite) {
		if a.RunProgram != nil {
			t.Errorf("per-package filter kept program analyzer %s", a.Name)
		}
		kept[a.Name] = true
	}
	wantSkipped := []string{"lpowner", "guesttaint", "unitflow", "hotalloc", "lockorder", "faultpoint", "errdiscipline"}
	for _, name := range wantSkipped {
		if kept[name] {
			t.Errorf("program analyzer %s must be skipped under go vet -vettool", name)
		}
	}
	wantKept := []string{"determinism", "simdiscipline", "tracecharge"}
	for _, name := range wantKept {
		if !kept[name] {
			t.Errorf("per-package analyzer %s missing from the vet-mode subset", name)
		}
	}
	if len(kept) != len(wantKept) {
		t.Errorf("vet-mode subset has %d analyzers, want %d: %v", len(kept), len(wantKept), kept)
	}
}

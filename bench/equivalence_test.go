package main

import (
	"testing"

	"vread/internal/experiments"
)

// The workloads time the paper's experiments, not look-alikes: at a tiny
// size each workload's cells produce rows byte-identical to the
// experiments.Run* call they mirror.

const (
	tinySeed  = 5
	tinyScale = 0.001 // TestDFSIO's 16 MiB file floor
)

func passCells(t *testing.T, run func(ps *pass)) []cellResult {
	t.Helper()
	var ps pass
	run(&ps)
	for _, c := range ps.cells {
		if c.err != nil {
			t.Fatalf("%s: %v", c.label, c.err)
		}
	}
	return ps.cells
}

func TestDFSIOReadCellsMatchRunDFSIOPoint(t *testing.T) {
	for _, vread := range []bool{false, true} {
		cells := passCells(t, func(ps *pass) { dfsioReadGrid(tinySeed, tinyScale, vread, ps) })
		i := 0
		for _, sc := range scenarios {
			for _, vms := range []int{2, 4} {
				for _, freq := range experiments.PaperFreqs {
					rows, err := experiments.RunDFSIOPoint(experiments.Options{Seed: tinySeed, Scale: tinyScale}, sc, vms, freq, vread)
					if err != nil {
						t.Fatal(err)
					}
					if want := renderDFSIORows(rows); cells[i].rows != want {
						t.Errorf("%s: bench rows\n%s\nRunDFSIOPoint rows\n%s", cells[i].label, cells[i].rows, want)
					}
					i++
				}
			}
		}
		if i != len(cells) {
			t.Errorf("bench ran %d cells, the grid has %d", len(cells), i)
		}
	}
}

func TestDFSIOWriteCellsMatchRunFig13(t *testing.T) {
	cells := passCells(t, func(ps *pass) { dfsioWriteGrid(tinySeed, tinyScale, ps) })
	rows, err := experiments.RunFig13(experiments.Options{Seed: tinySeed, Scale: tinyScale})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(cells) {
		t.Fatalf("bench ran %d cells, RunFig13 returned %d rows", len(cells), len(rows))
	}
	for i, r := range rows {
		if want := renderFig13Rows(rows[i : i+1]); cells[i].rows != want {
			t.Errorf("%s: bench rows %q, RunFig13 row %q (%+v)", cells[i].label, cells[i].rows, want, r)
		}
	}
}

func TestScaleCellMatchesRunScale(t *testing.T) {
	sc := scaleStormConfig(200)
	cells := passCells(t, func(ps *pass) { ps.cells = append(ps.cells, scaleCell(tinySeed, sc, ps)) })
	rows, err := experiments.RunScale(experiments.Options{Seed: tinySeed}, sc)
	if err != nil {
		t.Fatal(err)
	}
	if want := experiments.RenderSLORows(rows); cells[0].rows != want {
		t.Errorf("bench rows\n%sRunScale rows\n%s", cells[0].rows, want)
	}
}

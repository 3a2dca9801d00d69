package faults

import (
	"slices"
	"testing"
)

// FuzzParseSpec: fault specs arrive from the command line and scenario
// files, so no input may panic the parser, every accepted rule must be in
// range (a negative delay would panic the engine when the rule fires), and
// an accepted spec must re-parse from its String form to an equal Spec.
// Seeds live in testdata/fuzz/FuzzParseSpec.
func FuzzParseSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, in string) {
		spec, err := ParseSpec(in)
		if err != nil {
			return
		}
		for _, r := range spec {
			if !(r.Prob >= 0) || r.AfterN < 0 || r.MaxFires < 0 || r.Delay < 0 {
				t.Fatalf("ParseSpec(%q) accepted out-of-range rule %+v", in, r)
			}
		}
		again, err := ParseSpec(spec.String())
		if err != nil {
			t.Fatalf("ParseSpec(%q).String() = %q does not re-parse: %v", in, spec.String(), err)
		}
		if !slices.Equal(spec, again) {
			t.Fatalf("ParseSpec(%q) = %+v, round trip through %q gives %+v", in, spec, spec.String(), again)
		}
	})
}

package main

import (
	"strings"
	"testing"

	"vread"
)

// TestRunRejectsBadFlags: an unknown -format used to print tables silently,
// and a non-positive -scale or -trace-every or a negative -parallel ran
// anyway. Each, like an unknown -transport or -exp, must fail before any
// experiment runs, with an error naming the flag. An unknown -exp also names
// every id the registry knows.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-format", "bogus"},
		{"-transport", "bogus"},
		{"-scale", "0"},
		{"-scale", "-0.05"},
		{"-scale", "NaN"},
		{"-scale", "+Inf"},
		{"-parallel", "-1"},
		{"-trace-every", "0"},
		{"-trace-every", "-2"},
		{"-exp", "bogus"},
	} {
		err := run(append([]string{"-exp", "fig2", "-scale", "0.001"}, args...))
		if err == nil || !strings.Contains(err.Error(), args[0]) {
			t.Errorf("run(%q) = %v, want an error naming %s", args, err, args[0])
		}
	}
	err := run([]string{"-exp", "bogus"})
	for _, e := range vread.Experiments() {
		if err == nil || !strings.Contains(err.Error(), e.ID) {
			t.Errorf("run(-exp bogus) = %v, want an error naming %s", err, e.ID)
		}
	}
}

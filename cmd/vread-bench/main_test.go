package main

import (
	"strings"
	"testing"
)

// TestRunRejectsBadFlags: an unknown -format used to print tables silently;
// it and an unknown -transport must fail before any experiment runs.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-format", "bogus"},
		{"-transport", "bogus"},
	} {
		err := run(append(args, "-exp", "fig2", "-scale", "0.001"))
		if err == nil || !strings.Contains(err.Error(), args[0]) {
			t.Errorf("run(%q) = %v, want an error naming %s", args, err, args[0])
		}
	}
}

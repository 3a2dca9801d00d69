package core_test

import (
	"errors"
	"fmt"
	"testing"

	"vread/internal/core"
	"vread/internal/hdfs"
)

// TestTypedReadError pins the typed-failure rule: each degradation error,
// wrapped the way the read path wraps it, counts as typed; a caller bug, a
// refused quiesce or migration, a namespace error and an untyped error do
// not.
func TestTypedReadError(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{core.ErrDaemonFailed, true},
		{core.ErrShortRead, true},
		{core.ErrRingClosed, true},
		{core.ErrStaleKey, true},
		{core.ErrRingRevoked, true},
		{core.ErrBadRange, false},
		{core.ErrBadQuiesce, false},
		{core.ErrBadMigration, false},
		{core.ErrNotDrained, false},
		{hdfs.ErrShardDown, false},
		{errors.New("core: something else"), false},
	}
	if core.TypedReadError(nil) {
		t.Error("nil counted as a typed read error")
	}
	for _, tc := range cases {
		wrapped := fmt.Errorf("read blk_1 [0,4096): %w", tc.err)
		for _, err := range []error{tc.err, wrapped} {
			if got := core.TypedReadError(err); got != tc.want {
				t.Errorf("TypedReadError(%q) = %v, want %v", err, got, tc.want)
			}
		}
	}
}

//go:build !go1.23

package sim

// Procs are iter.Pull coroutines (proc.go), which need a Go 1.23 or newer
// toolchain; this undefined name makes an older toolchain say so.
var _ = simProcsNeedGo1_23OrNewer

package core

import "errors"

// The typed errors a vRead read can surface. The chaos harness's first
// invariant — reads return correct bytes or a typed error, never silent
// corruption — is checked against these: every failure libvread reports
// wraps one of them, so callers (and the hdfs client's fallback) can
// distinguish "vRead degraded" from a programming error.
var (
	// ErrRingClosed means the shared-memory ring was torn down under the
	// read (VM shutdown). Not retryable.
	ErrRingClosed = errors.New("core: ring closed")
	// ErrDaemonFailed means the daemon aborted the read — stale mount,
	// injected disk error, crash, or remote retries exhausted. Retryable:
	// a crash-restarted daemon or refreshed mount may succeed.
	ErrDaemonFailed = errors.New("core: daemon failed")
	// ErrShortRead means the ring stream ended before the requested byte
	// count — a torn read. Retryable.
	ErrShortRead = errors.New("core: short vRead")
	// ErrBadRange means the caller asked for offsets outside the block —
	// a programming error in the caller, never retryable.
	ErrBadRange = errors.New("core: range outside block")
	// ErrStaleKey means the descriptor carried a ring key from a previous
	// epoch — the ring was restored (key rotated) under the caller, or the
	// guest replayed an old descriptor. Retryable: libvread stamps the
	// current key on the re-issued request.
	ErrStaleKey = errors.New("core: stale ring key")
	// ErrRingRevoked means the daemon revoked this VM's ring permission
	// (a misbehaving guest crossed the revocation threshold). Not
	// retryable: the ring stays revoked until the VM is torn down.
	ErrRingRevoked = errors.New("core: ring permission revoked")
	// ErrBadQuiesce means a RingSnapshot or RingRestore was refused: the
	// named client is unknown, the ring is in the wrong state for the
	// operation, or the snapshot's epoch no longer matches the ring.
	ErrBadQuiesce = errors.New("core: invalid ring quiesce")
	// ErrBadMigration means a MigrateMount was refused before any ring was
	// touched: unknown VM or host, wrong source host, or no mount to move.
	ErrBadMigration = errors.New("core: invalid mount migration")
	// ErrNotDrained means a read storm left work behind at its deadline: it
	// never finished, events or remote reads were still pending, or a trace
	// span never closed. Manager.Drained wraps it; no read returns it.
	ErrNotDrained = errors.New("core: storm not drained")
	// ErrBadTransport means ParseTransport was given a name other than
	// "rdma" or "tcp".
	ErrBadTransport = errors.New("core: unknown transport")
)

// TypedReadError reports whether err is one of the five degradation errors
// a vRead read may surface: ErrDaemonFailed, ErrShortRead, ErrRingClosed,
// ErrStaleKey or ErrRingRevoked. It is the one typed-failure rule every read
// storm checks "correct bytes or a typed error" against. ErrBadRange is left
// out: it is a caller bug, not a degradation.
func TypedReadError(err error) bool {
	return errors.Is(err, ErrDaemonFailed) || errors.Is(err, ErrShortRead) ||
		errors.Is(err, ErrRingClosed) || errors.Is(err, ErrStaleKey) ||
		errors.Is(err, ErrRingRevoked)
}

// retryableRead reports whether libvread should re-issue the request.
func retryableRead(err error) bool {
	return errors.Is(err, ErrDaemonFailed) || errors.Is(err, ErrShortRead) ||
		errors.Is(err, ErrStaleKey)
}

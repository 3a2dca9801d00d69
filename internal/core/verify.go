package core

import (
	"errors"
	"fmt"

	"vread/internal/data"
	"vread/internal/hdfs"
	"vread/internal/sim"
	"vread/internal/trace"
)

// ReadOutcome classifies one verified read.
type ReadOutcome int

const (
	ReadOK      ReadOutcome = iota // the read returned the written bytes
	ReadMiss                       // the open was refused (crashed daemon, dead rack, revoked ring)
	ReadTyped                      // the read failed with a typed error (TypedReadError)
	ReadCorrupt                    // the read returned wrong bytes: an invariant violation
	ReadUntyped                    // the read failed with any other error: an invariant violation
)

// ReadAttempt is one location's try at a verified read.
type ReadAttempt struct {
	Loc     string // datanode tried
	Outcome ReadOutcome
	Err     error // the read error, for ReadTyped and ReadUntyped
}

// VerifiedRead is the one read step every read storm shares. It opens block
// blk at each of locs in turn, reads [off, off+n), closes the block and
// checks the bytes against want. A refused open or a typed error fails over
// to the next location, after failed (when non-nil) has seen blk and the
// attempt; correct bytes, wrong bytes or an untyped error end the read. It
// returns the last attempt, so ReadMiss or ReadTyped means every location
// failed that way (an empty locs is a ReadMiss).
func (l *Lib) VerifiedRead(p *sim.Proc, tr *trace.Trace, locs []string, blk hdfs.BlockID,
	off, n int64, want data.Slice, failed func(hdfs.BlockID, ReadAttempt)) ReadAttempt {
	a := ReadAttempt{Outcome: ReadMiss}
	for _, loc := range locs {
		a = ReadAttempt{Loc: loc, Outcome: ReadMiss}
		if vfd, ok := l.OpenPath(p, tr, loc, hdfs.BlockPath(blk), blk.BlockName()); ok {
			var got data.Slice
			got, a.Err = vfd.ReadAt(p, tr, off, n)
			vfd.Close(p, tr)
			switch {
			case a.Err == nil && data.Equal(got, want):
				a.Outcome = ReadOK
			case a.Err == nil:
				a.Outcome = ReadCorrupt
			case TypedReadError(a.Err):
				a.Outcome = ReadTyped
			default:
				a.Outcome = ReadUntyped
			}
		}
		if a.Outcome != ReadMiss && a.Outcome != ReadTyped {
			return a
		}
		if failed != nil {
			failed(blk, a)
		}
	}
	return a
}

// Drained is the one drain check every read storm shares, made once the
// engine has run to the storm's deadline. done reports whether the storm
// finished; if it did not, Drained reports only that. Otherwise it joins
// one error per broken property: events still pending, remote reads leaked,
// and spans on tracer's traces that never closed. Span balance is checked
// after the drain because readahead disk spans and dropped-frame wire spans
// close asynchronously, at disk-finish or would-have-arrived instants; once
// the event loop is empty, every span must have ended, fault paths included.
// Every error wraps ErrNotDrained.
func (m *Manager) Drained(tracer *trace.Tracer, done bool) error {
	if !done {
		return fmt.Errorf("%w: workload wedged: storm did not finish by its deadline", ErrNotDrained)
	}
	var errs []error
	if pend := m.env.Pending(); pend != 0 {
		errs = append(errs, fmt.Errorf("%w: %d events still pending after the storm drained", ErrNotDrained, pend))
	}
	if pend := len(m.pending); pend != 0 {
		errs = append(errs, fmt.Errorf("%w: %d remote reads leaked", ErrNotDrained, pend))
	}
	for _, tr := range tracer.Traces() {
		for _, s := range tr.Spans {
			if s.End < s.Start {
				errs = append(errs, fmt.Errorf("%w: %s: span %s/%s opened at %v never closed",
					ErrNotDrained, tr.Name, s.Layer, s.Name, s.Start))
			}
		}
	}
	return errors.Join(errs...)
}

// Package trace is the per-request observability spine of the simulator: a
// lightweight, deterministic span/event model carried by every read request
// from the DFS client entry point down through libvread, the request ring,
// the daemon, the host file system, the remote transports, the guest kernel,
// the virtio devices, and the physical disk and network.
//
// Design constraints, in order:
//
//   - Zero overhead by default. Every method is safe on a nil *Trace and
//     returns immediately, so untraced requests pay one nil check per
//     instrumentation point and allocate nothing.
//   - Deterministic. Timestamps are virtual (sim.Env time), span and charge
//     order is event order, and the exporters iterate slices — never maps —
//     so the same seed produces byte-identical output.
//   - Allocation-conscious. Spans and cycle charges live in small slices
//     owned by the trace; charges merge in place instead of growing a map.
//
// A trace's cycle charges annotate one request for the exports; they are
// not a ledger. Aggregate cycle counts, the Figure 6–8 bars among them, live
// only in metrics.Registry, which cpusched charges at the same point. The
// span stream is reduced to per-stage latency percentiles (reduce.go).
package trace

import (
	"fmt"
	"time"

	"vread/internal/sim"
)

// Layer identifies which architectural layer of the read path a span or
// event belongs to. The numeric order is the top-down order of the stack.
type Layer uint8

// Layers of the read path.
const (
	LayerClient Layer = iota // DFS / QFS client request handling
	LayerLib                 // libvread inside the client VM
	LayerRing                // shared request/completion ring
	LayerDaemon              // vread daemon on the host
	LayerHostFS              // host page cache + loop-mounted image reads
	LayerRemote              // daemon-to-daemon RDMA/TCP transport
	LayerGuest               // guest kernel: sockets and page cache
	LayerServer              // datanode / chunk-server application
	LayerDisk                // physical device I/O
	LayerNet                 // fabric hops (NIC pacing, wire, RDMA)
	layerCount
)

var layerNames = [layerCount]string{
	"client", "lib", "ring", "daemon", "hostfs", "remote", "guest",
	"server", "disk", "net",
}

// String returns the stable lower-case layer name used in exports.
func (l Layer) String() string {
	if int(l) < len(layerNames) {
		return layerNames[l]
	}
	return fmt.Sprintf("layer(%d)", int(l))
}

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string
	Value string
}

// Span is one timed stage of a request. A span with End == Start is an
// instantaneous event (a cache hit, a path-selection decision).
type Span struct {
	Layer Layer
	Name  string
	Start time.Duration
	End   time.Duration
	Bytes int64
	Attrs []Attr
}

// Dur returns the span duration (0 for events and unclosed spans).
func (s Span) Dur() time.Duration {
	if s.End <= s.Start {
		return 0
	}
	return s.End - s.Start
}

// CycleCharge accumulates CPU cycles consumed on behalf of the request,
// keyed the same way as metrics.Registry: accounting entity × legend tag.
type CycleCharge struct {
	Entity string
	Tag    string
	Cycles int64
}

// Trace is one request's journey. All methods are nil-safe.
type Trace struct {
	ID    int64
	Name  string
	Start time.Duration
	End   time.Duration
	Bytes int64

	Spans   []Span
	Charges []CycleCharge

	env *sim.Env
}

// Begin opens a span and returns its index (-1 on a nil trace). The span
// stays open until End is called with the index.
//
//lint:hotpath
func (t *Trace) Begin(layer Layer, name string) int {
	if t == nil {
		return -1
	}
	t.Spans = append(t.Spans, Span{Layer: layer, Name: name, Start: t.env.Now(), End: -1}) //lint:allow hotalloc(span growth amortized into the trace-owned slice; the nil default allocates nothing)
	return len(t.Spans) - 1
}

// EndSpan closes the span opened by Begin, recording the bytes it moved.
//
//lint:hotpath
func (t *Trace) EndSpan(idx int, bytes int64) {
	if t == nil || idx < 0 || idx >= len(t.Spans) {
		return
	}
	s := &t.Spans[idx]
	s.End = t.env.Now()
	s.Bytes = bytes
}

// Annotate attaches a key/value pair to an open or closed span.
func (t *Trace) Annotate(idx int, key, value string) {
	if t == nil || idx < 0 || idx >= len(t.Spans) {
		return
	}
	s := &t.Spans[idx]
	s.Attrs = append(s.Attrs, Attr{Key: key, Value: value})
}

// Event records an instantaneous mark (End == Start).
//
//lint:hotpath
func (t *Trace) Event(layer Layer, name string, bytes int64) {
	if t == nil {
		return
	}
	now := t.env.Now()
	t.Spans = append(t.Spans, Span{Layer: layer, Name: name, Start: now, End: now, Bytes: bytes}) //lint:allow hotalloc(span growth amortized into the trace-owned slice; the nil default allocates nothing)
}

// AddCycles charges CPU cycles consumed for this request, merging into the
// existing (entity, tag) bucket when one exists. Buckets keep first-seen
// order, which keeps exports deterministic.
//
//lint:hotpath
func (t *Trace) AddCycles(entity, tag string, n int64) {
	if t == nil || n == 0 {
		return
	}
	for i := range t.Charges {
		if t.Charges[i].Entity == entity && t.Charges[i].Tag == tag {
			t.Charges[i].Cycles += n
			return
		}
	}
	t.Charges = append(t.Charges, CycleCharge{Entity: entity, Tag: tag, Cycles: n}) //lint:allow hotalloc(one bucket per distinct entity×tag pair, merged in place thereafter)
}

// Finish closes the request, recording its total bytes. Late asynchronous
// charges (readahead completions) may still arrive after Finish; they are
// accepted, since they were performed on the request's behalf.
func (t *Trace) Finish(bytes int64) {
	if t == nil {
		return
	}
	t.End = t.env.Now()
	t.Bytes = bytes
}

// Dur returns the request duration (End - Start).
func (t *Trace) Dur() time.Duration {
	if t == nil || t.End <= t.Start {
		return 0
	}
	return t.End - t.Start
}

// ---------------------------------------------------------------------------
// Tracer: request sampling and collection.

// Collector accumulates finished traces, possibly across several tracers
// (one experiment builds multiple testbeds that share one collector).
type Collector struct {
	Traces []*Trace
}

// Absorb moves every trace from other into c, renumbering IDs to continue
// c's sequence, and leaves other empty. The parallel experiment runner gives
// each cell a private collector and absorbs them in cell-index order, which
// reproduces exactly the IDs a single shared collector would have assigned
// in a serial run — exports stay byte-identical.
func (c *Collector) Absorb(other *Collector) {
	if other == nil || other == c {
		return
	}
	for _, t := range other.Traces {
		t.ID = int64(len(c.Traces) + 1)
		c.Traces = append(c.Traces, t)
	}
	other.Traces = nil
}

// Tracer creates request traces at the client entry points. A nil *Tracer
// is valid and never samples, which is the zero-overhead default.
type Tracer struct {
	env   *sim.Env
	every int64
	seen  int64
	col   *Collector
}

// NewTracer creates a tracer sampling every Nth request (every <= 1 traces
// all requests) into its own collector.
func NewTracer(env *sim.Env, every int) *Tracer {
	return NewTracerInto(env, every, &Collector{})
}

// NewTracerInto is NewTracer appending into a shared collector.
func NewTracerInto(env *sim.Env, every int, col *Collector) *Tracer {
	if every < 1 {
		every = 1
	}
	if col == nil {
		col = &Collector{}
	}
	return &Tracer{env: env, every: int64(every), col: col}
}

// Request starts a trace for the next request, or returns nil when the
// request falls outside the sampling pattern (or the tracer is nil).
func (tc *Tracer) Request(name string) *Trace {
	if tc == nil {
		return nil
	}
	tc.seen++
	if tc.every > 1 && (tc.seen-1)%tc.every != 0 {
		return nil
	}
	t := &Trace{
		ID:    int64(len(tc.col.Traces) + 1),
		Name:  name,
		Start: tc.env.Now(),
		End:   -1,
		env:   tc.env,
		// A storm read opens 14–16 spans and charges 8–9 (entity, tag)
		// pairs; sized up front, neither grows.
		Spans:   make([]Span, 0, 16),
		Charges: make([]CycleCharge, 0, 9),
	}
	tc.col.Traces = append(tc.col.Traces, t)
	return t
}

// Traces returns the collected traces in creation order.
func (tc *Tracer) Traces() []*Trace {
	if tc == nil {
		return nil
	}
	return tc.col.Traces
}

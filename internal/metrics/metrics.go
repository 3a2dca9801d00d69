// Package metrics accumulates the measurements the paper reports: CPU cycles
// attributed to (entity, tag) pairs — the stacked bars of Figures 6–8 — plus
// latency and throughput aggregates for the delay and DFSIO experiments.
//
// Entities are coarse accounting domains ("client", "datanode"); tags are the
// paper's legend labels ("client-application", "loop device",
// "copy:virtio-vqueue", "copy:vread-buffer", "vhost-net", "rdma", "vread-net",
// "disk read", "others").
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Canonical tag names, matching the legends of Figures 6, 7 and 8.
const (
	TagClientApp   = "client-application"
	TagLoopDevice  = "loop device"
	TagCopyVirtio  = "copy:virtio-vqueue"
	TagCopyVRead   = "copy:vread-buffer"
	TagVhostNet    = "vhost-net"
	TagRDMA        = "rdma"
	TagVReadNet    = "vread-net"
	TagDiskRead    = "disk read"
	TagOthers      = "others"
	TagDatanodeApp = "datanode-application"
)

// Registry accumulates cycle counts. It is the simulator's only aggregate
// cycle ledger: a request trace's charges are per-request annotations of
// the same cycles. The zero value is not usable; call NewRegistry.
//
// Each entity's cycles live in one Account. A charging hot path (a
// cpusched thread) resolves its Account once and charges it by tag, so a
// charge hashes no string; the string-keyed methods below look the account
// up per call and serve readers and cold paths.
type Registry struct {
	accounts map[string]*Account
	start    time.Duration // window start for utilization reports
}

// Account is one entity's cycle ledger: a (tag, cycles, mark) cell per tag
// in first-charge order. An entity charges a handful of tags, so a linear
// scan behind a last-hit check beats hashing the tag.
type Account struct {
	entity string
	cells  []cell
	// last is the cell the previous Add hit. It always points into the
	// current cells array: Add resets it after every append.
	last *cell
}

type cell struct {
	tag    string
	cycles int64
	mark   int64 // cycles at the last MarkWindow
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{accounts: make(map[string]*Account)}
}

// Account returns entity's ledger, creating it on first use. An account
// that has never been charged is not listed by Entities.
func (r *Registry) Account(entity string) *Account {
	a := r.accounts[entity]
	if a == nil {
		a = &Account{entity: entity} //lint:allow hotalloc(once per entity, on its first thread's first wake)
		r.accounts[entity] = a
	}
	return a
}

// AddCycles charges n cycles to (entity, tag). Negative n panics.
func (r *Registry) AddCycles(entity, tag string, n int64) { r.Account(entity).Add(tag, n) }

// Add charges n cycles to tag. Negative n panics.
//
//lint:hotpath
func (a *Account) Add(tag string, n int64) {
	if n < 0 {
		panic(fmt.Sprintf("metrics: negative cycles %d for %s/%s", n, a.entity, tag))
	}
	c := a.last
	if c == nil || c.tag != tag {
		if c = a.find(tag); c == nil {
			a.cells = append(a.cells, cell{tag: tag}) //lint:allow hotalloc(first charge to a tag only, zero at steady state)
			c = &a.cells[len(a.cells)-1]
		}
		a.last = c
	}
	c.cycles += n
}

// find returns the cell for tag, or nil when tag was never charged. A nil
// account (an entity the registry has never seen) has no cells.
func (a *Account) find(tag string) *cell {
	if a == nil {
		return nil
	}
	for i := range a.cells {
		if a.cells[i].tag == tag {
			return &a.cells[i]
		}
	}
	return nil
}

// Cycles returns the cycles charged to (entity, tag) since creation.
func (r *Registry) Cycles(entity, tag string) int64 {
	if c := r.accounts[entity].find(tag); c != nil {
		return c.cycles
	}
	return 0
}

// Entities returns the names of all entities charged at least once, sorted.
func (r *Registry) Entities() []string {
	out := make([]string, 0, len(r.accounts))
	for e, a := range r.accounts {
		if len(a.cells) > 0 {
			out = append(out, e)
		}
	}
	sort.Strings(out)
	return out
}

// Tags returns the tags charged under entity, sorted.
func (r *Registry) Tags(entity string) []string {
	a := r.accounts[entity]
	if a == nil {
		return []string{}
	}
	out := make([]string, 0, len(a.cells))
	for _, c := range a.cells {
		out = append(out, c.tag)
	}
	sort.Strings(out)
	return out
}

// MarkWindow records the current counters and time as the start of a
// measurement window; Utilization and WindowCycles report relative to it.
// A tag first charged after the mark reports all its cycles as in-window.
func (r *Registry) MarkWindow(now time.Duration) {
	r.start = now
	for _, a := range r.accounts {
		for i := range a.cells {
			a.cells[i].mark = a.cells[i].cycles
		}
	}
}

// WindowCycles returns cycles charged to (entity, tag) since MarkWindow.
func (r *Registry) WindowCycles(entity, tag string) int64 {
	if c := r.accounts[entity].find(tag); c != nil {
		return c.cycles - c.mark
	}
	return 0
}

// WindowEntityCycles returns cycles charged to entity since MarkWindow.
func (r *Registry) WindowEntityCycles(entity string) int64 {
	var sum int64
	if a := r.accounts[entity]; a != nil {
		for _, c := range a.cells {
			sum += c.cycles - c.mark
		}
	}
	return sum
}

// Utilization returns the fraction of one core (0..n) that (entity, tag)
// consumed between MarkWindow and now at the given clock frequency.
func (r *Registry) Utilization(entity, tag string, now time.Duration, freqHz int64) float64 {
	elapsed := now - r.start
	if elapsed <= 0 {
		return 0
	}
	return float64(r.WindowCycles(entity, tag)) / (float64(freqHz) * elapsed.Seconds())
}

// EntityUtilization is Utilization summed over all tags of entity.
func (r *Registry) EntityUtilization(entity string, now time.Duration, freqHz int64) float64 {
	elapsed := now - r.start
	if elapsed <= 0 {
		return 0
	}
	return float64(r.WindowEntityCycles(entity)) / (float64(freqHz) * elapsed.Seconds())
}

// Breakdown returns the per-tag utilization for entity as a map, suitable for
// rendering one stacked bar of Figures 6–8.
func (r *Registry) Breakdown(entity string, now time.Duration, freqHz int64) map[string]float64 {
	out := make(map[string]float64)
	for _, tag := range r.Tags(entity) {
		if u := r.Utilization(entity, tag, now, freqHz); u > 0 {
			out[tag] = u
		}
	}
	return out
}

// TagsByShare returns a breakdown's tags by descending share, ties by name:
// the order experiment output lists them in.
func TagsByShare(b map[string]float64) []string {
	tags := make([]string, 0, len(b))
	for tag := range b {
		tags = append(tags, tag)
	}
	sort.Slice(tags, func(i, j int) bool {
		if b[tags[i]] != b[tags[j]] {
			return b[tags[i]] > b[tags[j]]
		}
		return tags[i] < tags[j]
	})
	return tags
}

// FormatBreakdown renders a breakdown as "tag pct%" lines in TagsByShare
// order, for experiment output.
func FormatBreakdown(b map[string]float64) string {
	var sb strings.Builder
	for _, tag := range TagsByShare(b) {
		fmt.Fprintf(&sb, "  %-24s %6.2f%%\n", tag, b[tag]*100)
	}
	return sb.String()
}

// ---------------------------------------------------------------------------
// Latency samples.

// LatencyRecorder collects duration samples and reports simple statistics.
type LatencyRecorder struct {
	samples []time.Duration
	sorted  bool
}

// NewLatencyRecorder returns an empty recorder.
func NewLatencyRecorder() *LatencyRecorder { return &LatencyRecorder{} }

// Record adds one sample.
func (l *LatencyRecorder) Record(d time.Duration) {
	l.samples = append(l.samples, d)
	l.sorted = false
}

// Count returns the number of samples.
func (l *LatencyRecorder) Count() int { return len(l.samples) }

// Mean returns the arithmetic mean, or 0 with no samples.
func (l *LatencyRecorder) Mean() time.Duration {
	if len(l.samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, s := range l.samples {
		sum += s
	}
	return sum / time.Duration(len(l.samples))
}

// Max returns the largest sample, or 0 with no samples.
func (l *LatencyRecorder) Max() time.Duration {
	l.sort()
	if len(l.samples) == 0 {
		return 0
	}
	return l.samples[len(l.samples)-1]
}

// Percentile returns the p-th percentile (0 < p <= 100) by nearest-rank.
func (l *LatencyRecorder) Percentile(p float64) time.Duration {
	l.sort()
	if len(l.samples) == 0 {
		return 0
	}
	if p <= 0 {
		return l.samples[0]
	}
	rank := int(p/100*float64(len(l.samples))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(l.samples) {
		rank = len(l.samples) - 1
	}
	return l.samples[rank]
}

func (l *LatencyRecorder) sort() {
	if !l.sorted {
		sort.Slice(l.samples, func(i, j int) bool { return l.samples[i] < l.samples[j] })
		l.sorted = true
	}
}

// ---------------------------------------------------------------------------
// Throughput.

// Throughput converts bytes moved in elapsed virtual time to MB/s (decimal
// megabytes, as the paper's MBps axes).
func Throughput(bytes int64, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(bytes) / 1e6 / elapsed.Seconds()
}

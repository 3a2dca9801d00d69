package trace

// Reducers over the span stream: per-stage latency percentiles for the
// delay/DFSIO experiments and their CSV export. Cycle breakdowns are not
// reduced here; metrics.Registry is their only ledger.

import (
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"vread/internal/metrics"
)

// StageStat summarizes one (layer, span-name) stage across many traces.
type StageStat struct {
	Layer Layer
	Name  string
	Count int64
	Bytes int64
	Mean  time.Duration
	P50   time.Duration
	P95   time.Duration
	P99   time.Duration
	Max   time.Duration
}

// Stages reduces traces to per-stage latency statistics, sorted by layer
// then name. The root request itself appears as a stage per request name
// (layer "client"), so delay percentiles fall out of the same reducer.
func Stages(traces []*Trace) []StageStat {
	type acc struct {
		rec   *metrics.LatencyRecorder
		bytes int64
	}
	type key struct {
		layer Layer
		name  string
	}
	m := make(map[key]*acc)
	add := func(k key, d time.Duration, bytes int64) {
		a := m[k]
		if a == nil {
			a = &acc{rec: metrics.NewLatencyRecorder()}
			m[k] = a
		}
		a.rec.Record(d)
		a.bytes += bytes
	}
	for _, t := range traces {
		add(key{LayerClient, t.Name}, t.Dur(), t.Bytes)
		for _, s := range t.Spans {
			add(key{s.Layer, s.Name}, s.Dur(), s.Bytes)
		}
	}
	keys := make([]key, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].layer != keys[j].layer {
			return keys[i].layer < keys[j].layer
		}
		return keys[i].name < keys[j].name
	})
	out := make([]StageStat, 0, len(keys))
	for _, k := range keys {
		a := m[k]
		out = append(out, StageStat{
			Layer: k.layer,
			Name:  k.name,
			Count: int64(a.rec.Count()),
			Bytes: a.bytes,
			Mean:  a.rec.Mean(),
			P50:   a.rec.Percentile(50),
			P95:   a.rec.Percentile(95),
			P99:   a.rec.Percentile(99),
			Max:   a.rec.Max(),
		})
	}
	return out
}

// WriteStagesCSV writes the per-stage statistics as CSV:
// layer,span,count,bytes,mean_us,p50_us,p95_us,p99_us,max_us.
func WriteStagesCSV(w io.Writer, stats []StageStat) error {
	var sb strings.Builder
	sb.WriteString("layer,span,count,bytes,mean_us,p50_us,p95_us,p99_us,max_us\n")
	for _, s := range stats {
		sb.WriteString(s.Layer.String())
		sb.WriteByte(',')
		sb.WriteString(csvField(s.Name))
		sb.WriteByte(',')
		sb.WriteString(strconv.FormatInt(s.Count, 10))
		sb.WriteByte(',')
		sb.WriteString(strconv.FormatInt(s.Bytes, 10))
		for _, d := range []time.Duration{s.Mean, s.P50, s.P95, s.P99, s.Max} {
			sb.WriteByte(',')
			sb.WriteString(usec(int64(d)))
		}
		sb.WriteByte('\n')
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

package experiments

import (
	"math"
	"testing"
)

// FuzzParseOptions: scenario files are untrusted config, so no input may
// panic ParseOptions, every count, size, delay and scale of an accepted file
// must be non-negative, its counts and host total within their bounds, its
// migration depths and open-loop rates positive, and every fault rule of it
// in range. Seeds live in
// testdata/fuzz/FuzzParseOptions.
func FuzzParseOptions(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		s, err := ParseOptions(raw)
		if err != nil {
			return
		}
		opt, sc, mc := s.Opt, s.Scale, s.Migrate
		if opt.FreqHz < 0 || opt.BlockSize < 0 || opt.Scale < 0 || opt.Shards < 0 || opt.Replication < 0 {
			t.Fatalf("ParseOptions(%q) accepted negative Options %+v", raw, opt)
		}
		if opt.Shards > maxShards || opt.Replication > maxShards {
			t.Fatalf("ParseOptions(%q) accepted oversized Options %+v", raw, opt)
		}
		if sc != nil {
			if sc.Domains < 0 || sc.RacksPerDomain < 0 || sc.HostsPerRack < 0 || sc.Datanodes < 0 ||
				sc.Clients < 0 || sc.Files < 0 || sc.FileSize < 0 || sc.Reads < 0 {
				t.Fatalf("ParseOptions(%q) accepted negative ScaleConfig %+v", raw, *sc)
			}
			d := sc.withDefaults()
			if d.Domains*d.RacksPerDomain*d.HostsPerRack > maxHosts || d.Datanodes > maxVMs || d.Clients > maxVMs ||
				d.Files > maxCount || d.Reads > maxCount {
				t.Fatalf("ParseOptions(%q) accepted oversized ScaleConfig %+v", raw, d)
			}
			for _, q := range sc.QPSLevels {
				if !(q > 0) || math.IsInf(q, 1) {
					t.Fatalf("ParseOptions(%q) accepted qps %v", raw, q)
				}
			}
		}
		if mc != nil {
			if mc.ReadsPerStream < 0 || mc.ReadsPerStream > maxCount || mc.ReadSize < 0 || mc.FileSize < 0 || mc.TriggerAfter < 0 {
				t.Fatalf("ParseOptions(%q) accepted negative MigrationConfig %+v", raw, *mc)
			}
			for _, d := range mc.Depths {
				if d < 1 || d > maxVMs {
					t.Fatalf("ParseOptions(%q) accepted depth %d", raw, d)
				}
			}
		}
		for _, r := range opt.Faults {
			if !(r.Prob >= 0) || r.AfterN < 0 || r.MaxFires < 0 || r.Delay < 0 {
				t.Fatalf("ParseOptions(%q) accepted out-of-range fault rule %+v", raw, r)
			}
		}
	})
}

package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"vread/internal/core"
	"vread/internal/faults"
)

// ScenarioConfig holds the keys of a scenario file (cmd/vread-sim -config);
// the CLIs fill it from their flags as well. Key names are stable; an absent
// or zero key keeps its default. Build turns it into a Setup.
type ScenarioConfig struct {
	Seed             int64   `json:"seed,omitempty"`
	FreqGHz          float64 `json:"freq_ghz,omitempty"`
	ExtraVMs         bool    `json:"extra_vms,omitempty"`
	VRead            bool    `json:"vread,omitempty"`
	Transport        string  `json:"transport,omitempty"` // "rdma" | "tcp"
	DirectDiskBypass bool    `json:"direct_disk_bypass,omitempty"`
	SharedMemNet     bool    `json:"shared_mem_net,omitempty"`
	SRIOV            bool    `json:"sriov,omitempty"`
	ShortCircuit     bool    `json:"short_circuit,omitempty"`
	Scale            float64 `json:"scale,omitempty"`
	BlockSizeMB      int64   `json:"block_size_mb,omitempty"`
	Scenario         string  `json:"scenario,omitempty"` // "co-located" | "remote" | "hybrid"
	// Shards federates the namespace behind a router when > 1.
	Shards int `json:"shards,omitempty"`
	// Replication is the write-pipeline depth.
	Replication int `json:"replication,omitempty"`
	// Faults arms deterministic fault injection, in faults.ParseSpec syntax,
	// e.g. "disk.read.slow:p=0.2,delay=2ms;daemon.crash:after=10,max=1".
	Faults string `json:"faults,omitempty"`
	// ScaleOut, when present, selects the datacenter-scale scenario
	// (RunScale) instead of the two-host figure testbed: the federated
	// multi-domain topology and the open-loop storm driven over it.
	ScaleOut *struct {
		// Domains × RacksPerDomain × HostsPerRack hosts.
		Domains        int `json:"domains,omitempty"`
		RacksPerDomain int `json:"racks_per_domain,omitempty"`
		HostsPerRack   int `json:"hosts_per_rack,omitempty"`
		Datanodes      int `json:"datanodes,omitempty"`
		Clients        int `json:"clients,omitempty"`
		Files          int `json:"files,omitempty"`
		FileKB         int `json:"file_kb,omitempty"`
		// QPS levels of the open-loop storm, one experiment cell per level.
		QPS []float64 `json:"qps,omitempty"`
		// Reads is the arrival count per cell.
		Reads int `json:"reads,omitempty"`
		// KillRack names the rack a rack.kill firing (armed via "faults")
		// takes down mid-storm.
		KillRack string `json:"kill_rack,omitempty"`
	} `json:"scale_out,omitempty"`
	// Migrate, when present, selects the live-mount-migration blackout sweep
	// (RunMigrationSweep) instead of the two-host figure testbed: the
	// in-flight depths to sweep and the per-stream storm the migration cuts
	// through.
	Migrate *struct {
		Depths         []int `json:"depths,omitempty"`
		ReadsPerStream int   `json:"reads_per_stream,omitempty"`
		ReadKB         int   `json:"read_kb,omitempty"`
		FileKB         int   `json:"file_kb,omitempty"`
		// TriggerAfterUS is the virtual delay, in microseconds, from storm
		// start to the migration firing.
		TriggerAfterUS int `json:"trigger_after_us,omitempty"`
	} `json:"migrate,omitempty"`
}

// Setup is a built scenario: the testbed Options, the placement (co-located
// by default), and the ScaleConfig or MigrationConfig that a "scale_out" or
// "migrate" block selects (nil when absent). Options.Shards/Replication
// apply to every path.
type Setup struct {
	Opt     Options
	Place   Scenario
	Scale   *ScaleConfig
	Migrate *MigrationConfig
}

// ParseOptions decodes a scenario file and builds it. Unknown fields are
// rejected so typos fail loudly.
func ParseOptions(raw []byte) (Setup, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var f ScenarioConfig
	if err := dec.Decode(&f); err != nil {
		return Setup{}, fmt.Errorf("experiments: bad scenario config: %w", err)
	}
	s, err := f.Build()
	if err != nil {
		return Setup{}, fmt.Errorf("experiments: %w", err)
	}
	return s, nil
}

// Upper bounds on the counts a scenario may ask for. Each is far above
// every committed scenario (the largest, scale-smoke, is 4 × 10 × 25 hosts,
// 12 datanodes and 4 clients) yet low enough that one mistyped digit cannot
// make a run allocate and boot a billion VMs.
const (
	maxHosts  = 10_000    // domains × racks_per_domain × hosts_per_rack, and each factor
	maxVMs    = 1_000     // scale_out datanodes and clients, and each migrate depth (reader VMs)
	maxShards = 64        // shards, and replicas per block
	maxCount  = 1_000_000 // files and reads
)

// Build converts each key into the Setup and range-checks it where it
// converts it. It rejects the values that would otherwise panic deep in a
// run (a makeslice, a negative delay, cpusched.New or data.Sub), be silently
// replaced (a negative shard count runs with one shard) or build a testbed
// no machine holds: negative counts, sizes, scale, shards or replication,
// counts above their bound, sizes and delays that overflow once scaled to
// bytes or nanoseconds, migration depths below one, open-loop rates that are
// not positive, and unknown enum names or fault rules. The error begins with
// the first bad key's name. encoding/json already refuses NaN, ±Inf and
// float literals out of float64's range.
func (f ScenarioConfig) Build() (Setup, error) {
	var c check
	if !(f.FreqGHz >= 0 && f.FreqGHz*1e9 < math.MaxInt64) {
		c.fail("freq_ghz %v out of range (want >= 0)", f.FreqGHz)
	}
	if !(f.Scale >= 0) {
		c.fail("scale %v out of range (want >= 0)", f.Scale)
	}
	s := Setup{Opt: Options{
		Seed:         f.Seed,
		FreqHz:       int64(f.FreqGHz * 1e9),
		ExtraVMs:     f.ExtraVMs,
		VRead:        f.VRead,
		VReadConfig:  core.Config{DirectDiskBypass: f.DirectDiskBypass, Transport: parse(&c, "transport", f.Transport, core.ParseTransport)},
		SharedMemNet: f.SharedMemNet,
		SRIOV:        f.SRIOV,
		ShortCircuit: f.ShortCircuit,
		Scale:        f.Scale,
		BlockSize:    inRange(&c, "block_size_mb", f.BlockSizeMB, 0, math.MaxInt64>>20) << 20,
		Shards:       inRange(&c, "shards", f.Shards, 0, maxShards),
		Replication:  inRange(&c, "replication", f.Replication, 0, maxShards),
		Faults:       parse(&c, "faults", f.Faults, faults.ParseSpec),
	}, Place: parse(&c, "scenario", f.Scenario, ParseScenario)}
	if so := f.ScaleOut; so != nil {
		s.Scale = &ScaleConfig{
			Domains:        inRange(&c, "scale_out.domains", so.Domains, 0, maxHosts),
			RacksPerDomain: inRange(&c, "scale_out.racks_per_domain", so.RacksPerDomain, 0, maxHosts),
			HostsPerRack:   inRange(&c, "scale_out.hosts_per_rack", so.HostsPerRack, 0, maxHosts),
			Shards:         s.Opt.Shards,
			Replication:    s.Opt.Replication,
			Datanodes:      inRange(&c, "scale_out.datanodes", so.Datanodes, 0, maxVMs),
			Clients:        inRange(&c, "scale_out.clients", so.Clients, 0, maxVMs),
			Files:          inRange(&c, "scale_out.files", so.Files, 0, maxCount),
			FileSize:       inRange(&c, "scale_out.file_kb", int64(so.FileKB), 0, math.MaxInt64>>10) << 10,
			QPSLevels:      so.QPS,
			Reads:          inRange(&c, "scale_out.reads", so.Reads, 0, maxCount),
			KillRack:       so.KillRack,
		}
		for _, q := range so.QPS {
			if !(q > 0) {
				c.fail("scale_out.qps %v out of range (want > 0)", q)
			}
		}
		// With every factor at most maxHosts (else c holds its error) the
		// int64 product cannot overflow; compare after the 3 × 2 × 2 defaults.
		d := s.Scale.withDefaults()
		if hosts := int64(d.Domains) * int64(d.RacksPerDomain) * int64(d.HostsPerRack); hosts > maxHosts {
			c.fail("scale_out.domains × racks_per_domain × hosts_per_rack = %d hosts out of range (want at most %d)", hosts, maxHosts)
		}
		// hdfs refuses such a write with ErrReplication on the first block;
		// compare after the replication 3 and 6-datanode defaults apply.
		if d.Replication > d.Datanodes {
			c.fail("replication %d exceeds scale_out.datanodes %d", d.Replication, d.Datanodes)
		}
	}
	if m := f.Migrate; m != nil {
		s.Migrate = &MigrationConfig{
			Depths:         m.Depths,
			ReadsPerStream: inRange(&c, "migrate.reads_per_stream", m.ReadsPerStream, 0, maxCount),
			ReadSize:       inRange(&c, "migrate.read_kb", int64(m.ReadKB), 0, math.MaxInt64>>10) << 10,
			FileSize:       inRange(&c, "migrate.file_kb", int64(m.FileKB), 0, math.MaxInt64>>10) << 10,
			TriggerAfter: time.Duration(inRange(&c, "migrate.trigger_after_us", int64(m.TriggerAfterUS),
				0, int64(math.MaxInt64/time.Microsecond))) * time.Microsecond,
		}
		for _, d := range m.Depths {
			inRange(&c, "migrate.depths", d, 1, maxVMs)
		}
		// A read larger than the file fails every read with ErrBadRange deep
		// in the run; compare after the 256 KiB and 4 MiB defaults apply.
		if d := s.Migrate.WithDefaults(); d.ReadSize > d.FileSize {
			c.fail("migrate.read_kb %d exceeds migrate.file_kb %d", d.ReadSize>>10, d.FileSize>>10)
		}
	}
	if c.err != nil {
		return Setup{}, c.err
	}
	return s, nil
}

// check keeps the first error Build meets; later failures add nothing.
type check struct{ err error }

func (c *check) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
}

// parse returns the named key parsed by p, or T's zero value (the default)
// when the key is absent.
func parse[T any](c *check, key, v string, p func(string) (T, error)) T {
	var t T
	if v == "" {
		return t
	}
	t, err := p(v)
	if err != nil {
		c.fail("%s: %w", key, err)
	}
	return t
}

// inRange returns v, recording an error naming key unless lo <= v <= hi.
func inRange[T int | int64](c *check, key string, v, lo, hi T) T {
	if v < lo || v > hi {
		c.fail("%s %d out of range (want %d..%d)", key, v, lo, hi)
	}
	return v
}

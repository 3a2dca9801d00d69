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

// OptionsJSON is the serializable form of Options used by scenario files
// (cmd/vread-sim -config). Field names are stable; absent fields keep their
// defaults.
type OptionsJSON struct {
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
	// ScaleOut, when present, selects the datacenter-scale scenario (RunScale)
	// instead of the two-host figure testbed.
	ScaleOut *ScaleOutJSON `json:"scale_out,omitempty"`
	// Migrate, when present, selects the live-mount-migration blackout sweep
	// (RunMigrationSweep) instead of the two-host figure testbed.
	Migrate *MigrateJSON `json:"migrate,omitempty"`
}

// ScaleOutJSON is the serializable form of ScaleConfig: the federated
// multi-domain topology and the open-loop storm driven over it.
type ScaleOutJSON struct {
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
	// KillRack names the rack a rack.kill firing (armed via "faults") takes
	// down mid-storm.
	KillRack string `json:"kill_rack,omitempty"`
}

// MigrateJSON is the serializable form of MigrationConfig: the in-flight
// depths to sweep and the per-stream storm a live mount migration cuts
// through.
type MigrateJSON struct {
	Depths         []int `json:"depths,omitempty"`
	ReadsPerStream int   `json:"reads_per_stream,omitempty"`
	ReadKB         int   `json:"read_kb,omitempty"`
	FileKB         int   `json:"file_kb,omitempty"`
	// TriggerAfterUS is the virtual delay, in microseconds, from storm start
	// to the migration firing.
	TriggerAfterUS int `json:"trigger_after_us,omitempty"`
}

// ParseOptions decodes a scenario file into Options plus the placement
// scenario (defaulting to co-located). Unknown fields are rejected so typos
// fail loudly. The scale-out config is non-nil when "scale_out" is present
// and the migration config when "migrate" is; Options.Shards/Replication
// apply to every path.
func ParseOptions(raw []byte) (Options, Scenario, *ScaleConfig, *MigrationConfig, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var j OptionsJSON
	if err := dec.Decode(&j); err != nil {
		return Options{}, Colocated, nil, nil, fmt.Errorf("experiments: bad scenario config: %w", err)
	}
	if err := checkRanges(j); err != nil {
		return Options{}, Colocated, nil, nil, err
	}
	opt := Options{
		Seed:         j.Seed,
		FreqHz:       int64(j.FreqGHz * 1e9),
		ExtraVMs:     j.ExtraVMs,
		VRead:        j.VRead,
		VReadConfig:  core.Config{DirectDiskBypass: j.DirectDiskBypass},
		SharedMemNet: j.SharedMemNet,
		SRIOV:        j.SRIOV,
		ShortCircuit: j.ShortCircuit,
		Scale:        j.Scale,
		BlockSize:    j.BlockSizeMB << 20,
		Shards:       j.Shards,
		Replication:  j.Replication,
	}
	if j.Transport != "" {
		t, err := core.ParseTransport(j.Transport)
		if err != nil {
			return Options{}, Colocated, nil, nil, fmt.Errorf("experiments: %w", err)
		}
		opt.VReadConfig.Transport = t
	}
	if j.Faults != "" {
		spec, err := faults.ParseSpec(j.Faults)
		if err != nil {
			return Options{}, Colocated, nil, nil, fmt.Errorf("experiments: %w", err)
		}
		opt.Faults = spec
	}
	scenario := Colocated
	if j.Scenario != "" {
		var err error
		if scenario, err = ParseScenario(j.Scenario); err != nil {
			return Options{}, Colocated, nil, nil, fmt.Errorf("experiments: %w", err)
		}
	}
	var sc *ScaleConfig
	if s := j.ScaleOut; s != nil {
		sc = &ScaleConfig{
			Domains:        s.Domains,
			RacksPerDomain: s.RacksPerDomain,
			HostsPerRack:   s.HostsPerRack,
			Shards:         j.Shards,
			Replication:    j.Replication,
			Datanodes:      s.Datanodes,
			Clients:        s.Clients,
			Files:          s.Files,
			FileSize:       int64(s.FileKB) << 10,
			QPSLevels:      s.QPS,
			Reads:          s.Reads,
			KillRack:       s.KillRack,
		}
		// Each factor is at most maxHosts, so the int64 product cannot
		// overflow; compare after the 3 × 2 × 2 defaults apply.
		d := sc.withDefaults()
		if hosts := int64(d.Domains) * int64(d.RacksPerDomain) * int64(d.HostsPerRack); hosts > maxHosts {
			return Options{}, Colocated, nil, nil, fmt.Errorf("experiments: scale_out.domains × racks_per_domain × hosts_per_rack = %d hosts out of range (want at most %d)", hosts, maxHosts)
		}
	}
	var mc *MigrationConfig
	if m := j.Migrate; m != nil {
		mc = &MigrationConfig{
			Depths:         m.Depths,
			ReadsPerStream: m.ReadsPerStream,
			ReadSize:       int64(m.ReadKB) << 10,
			FileSize:       int64(m.FileKB) << 10,
			TriggerAfter:   time.Duration(m.TriggerAfterUS) * time.Microsecond,
		}
		// A read larger than the file fails every read with ErrBadRange deep
		// in the run; compare after the 256 KiB and 4 MiB defaults apply.
		if d := mc.WithDefaults(); d.ReadSize > d.FileSize {
			return Options{}, Colocated, nil, nil, fmt.Errorf("experiments: migrate.read_kb %d exceeds migrate.file_kb %d", d.ReadSize>>10, d.FileSize>>10)
		}
	}
	return opt, scenario, sc, mc, nil
}

// Upper bounds on the counts a scenario file may ask for. Each is far above
// every committed scenario (the largest, scale-smoke, is 4 × 10 × 25 hosts,
// 12 datanodes and 4 clients) yet low enough that one mistyped digit cannot
// make a run allocate and boot a billion VMs.
const (
	maxHosts  = 10_000    // domains × racks_per_domain × hosts_per_rack, and each factor
	maxVMs    = 1_000     // scale_out datanodes and clients, and each migrate depth (reader VMs)
	maxShards = 64        // shards, and replicas per block
	maxCount  = 1_000_000 // files and reads
)

// checkRanges rejects the values that would otherwise panic deep in a run
// (a makeslice, a negative delay, cpusched.New or data.Sub), be silently
// replaced (a negative shard count runs with one shard) or build a testbed
// no machine holds: negative counts, sizes, scale, shards or replication,
// counts above their bound, sizes and delays that overflow once scaled to
// bytes or nanoseconds, migration depths below one, and open-loop rates that
// are not positive. Zero keeps a field's default. The error names the field.
// encoding/json already refuses NaN, ±Inf and float literals out of
// float64's range.
func checkRanges(j OptionsJSON) error {
	if !(j.FreqGHz >= 0 && j.FreqGHz*1e9 < math.MaxInt64) {
		return fmt.Errorf("experiments: freq_ghz %v out of range (want >= 0)", j.FreqGHz)
	}
	if j.Scale < 0 {
		return fmt.Errorf("experiments: scale %v out of range (want >= 0)", j.Scale)
	}
	var s ScaleOutJSON
	if j.ScaleOut != nil {
		s = *j.ScaleOut
	}
	var m MigrateJSON
	if j.Migrate != nil {
		m = *j.Migrate
	}
	for _, f := range []struct {
		name   string
		v, max int
	}{
		{"shards", j.Shards, maxShards},
		{"replication", j.Replication, maxShards},
		{"scale_out.domains", s.Domains, maxHosts},
		{"scale_out.racks_per_domain", s.RacksPerDomain, maxHosts},
		{"scale_out.hosts_per_rack", s.HostsPerRack, maxHosts},
		{"scale_out.datanodes", s.Datanodes, maxVMs},
		{"scale_out.clients", s.Clients, maxVMs},
		{"scale_out.files", s.Files, maxCount},
		{"scale_out.reads", s.Reads, maxCount},
		{"migrate.reads_per_stream", m.ReadsPerStream, maxCount},
	} {
		if f.v < 0 || f.v > f.max {
			return fmt.Errorf("experiments: %s %d out of range (want 0..%d)", f.name, f.v, f.max)
		}
	}
	// Sizes and delays must also fit in int64 once scaled.
	for _, f := range []struct {
		name   string
		v, max int64
	}{
		{"block_size_mb", j.BlockSizeMB, math.MaxInt64 >> 20},
		{"scale_out.file_kb", int64(s.FileKB), math.MaxInt64 >> 10},
		{"migrate.read_kb", int64(m.ReadKB), math.MaxInt64 >> 10},
		{"migrate.file_kb", int64(m.FileKB), math.MaxInt64 >> 10},
		{"migrate.trigger_after_us", int64(m.TriggerAfterUS), int64(math.MaxInt64 / time.Microsecond)},
	} {
		if f.v < 0 || f.v > f.max {
			return fmt.Errorf("experiments: %s %d out of range (want 0..%d)", f.name, f.v, f.max)
		}
	}
	for _, q := range s.QPS {
		if q <= 0 {
			return fmt.Errorf("experiments: scale_out.qps %v out of range (want > 0)", q)
		}
	}
	for _, d := range m.Depths {
		if d < 1 || d > maxVMs {
			return fmt.Errorf("experiments: migrate.depths %d out of range (want 1..%d)", d, maxVMs)
		}
	}
	return nil
}

package experiments

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"vread/internal/core"
)

func TestParseOptionsFull(t *testing.T) {
	raw := []byte(`{
		"seed": 9,
		"freq_ghz": 3.2,
		"extra_vms": true,
		"vread": true,
		"transport": "tcp",
		"sriov": true,
		"scale": 0.5,
		"block_size_mb": 32,
		"scenario": "hybrid"
	}`)
	s, err := ParseOptions(raw)
	if err != nil {
		t.Fatal(err)
	}
	opt, scenario, sc, mc := s.Opt, s.Place, s.Scale, s.Migrate
	if opt.Seed != 9 || opt.FreqHz != 3_200_000_000 || !opt.ExtraVMs || !opt.VRead {
		t.Fatalf("opt = %+v", opt)
	}
	if opt.VReadConfig.Transport != core.TransportTCP || !opt.SRIOV {
		t.Fatalf("opt = %+v", opt)
	}
	if opt.Scale != 0.5 || opt.BlockSize != 32<<20 {
		t.Fatalf("opt = %+v", opt)
	}
	if scenario != Hybrid {
		t.Fatalf("scenario = %v", scenario)
	}
	if sc != nil || mc != nil {
		t.Fatalf("figure-testbed scenario selected scale-out %+v or migration %+v", sc, mc)
	}
}

func TestParseOptionsDefaults(t *testing.T) {
	s, err := ParseOptions([]byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	opt, scenario, sc, mc := s.Opt, s.Place, s.Scale, s.Migrate
	if opt.VReadConfig.Transport != core.TransportRDMA || scenario != Colocated || sc != nil || mc != nil {
		t.Fatalf("defaults wrong: %+v %v %+v %+v", opt, scenario, sc, mc)
	}
	// The zero values defer to Options.withDefaults downstream.
	o := opt.withDefaults()
	if o.Seed != 1 || o.FreqHz != 2_000_000_000 {
		t.Fatalf("withDefaults = %+v", o)
	}
}

func TestParseOptionsRejectsUnknownFields(t *testing.T) {
	_, err := ParseOptions([]byte(`{"sead": 9}`))
	if err == nil || !strings.Contains(err.Error(), "sead") {
		t.Fatalf("typo not rejected: %v", err)
	}
}

func TestParseOptionsRejectsBadEnums(t *testing.T) {
	if _, err := ParseOptions([]byte(`{"transport": "carrier-pigeon"}`)); err == nil {
		t.Fatal("bad transport accepted")
	}
	if _, err := ParseOptions([]byte(`{"scenario": "somewhere"}`)); err == nil {
		t.Fatal("bad scenario accepted")
	}
}

// TestParseOptionsRejectsOutOfRange: a negative frequency used to panic the
// process in cpusched.New and a negative block size to fail deep in
// data.Sub; both must be rejected up front with the field named.
func TestParseOptionsRejectsOutOfRange(t *testing.T) {
	for _, tc := range []struct{ raw, field string }{
		{`{"freq_ghz": -1}`, "freq_ghz"},
		{`{"freq_ghz": 1e300}`, "freq_ghz"},
		{`{"block_size_mb": -1}`, "block_size_mb"},
		{`{"block_size_mb": 9007199254740992}`, "block_size_mb"},
		{`{"scale": -0.5}`, "scale"},
		{`{"shards": -3}`, "shards"},
		{`{"replication": -1}`, "replication"},
		{`{"scale_out": {"files": -1}}`, "scale_out.files"},
		{`{"scale_out": {"datanodes": -2}}`, "scale_out.datanodes"},
		{`{"scale_out": {"domains": -1}}`, "scale_out.domains"},
		{`{"scale_out": {"racks_per_domain": -1}}`, "scale_out.racks_per_domain"},
		{`{"scale_out": {"hosts_per_rack": -1}}`, "scale_out.hosts_per_rack"},
		{`{"scale_out": {"clients": -1}}`, "scale_out.clients"},
		{`{"scale_out": {"file_kb": -256}}`, "scale_out.file_kb"},
		{`{"scale_out": {"file_kb": 9007199254740993}}`, "scale_out.file_kb"},
		{`{"scale_out": {"reads": -60}}`, "scale_out.reads"},
		{`{"scale_out": {"qps": [-10]}}`, "scale_out.qps"},
		{`{"scale_out": {"qps": [1000, 0]}}`, "scale_out.qps"},
		{`{"migrate": {"depths": [-1]}}`, "migrate.depths"},
		{`{"migrate": {"depths": [1, 0]}}`, "migrate.depths"},
		{`{"migrate": {"reads_per_stream": -1}}`, "migrate.reads_per_stream"},
		{`{"migrate": {"read_kb": -1}}`, "migrate.read_kb"},
		{`{"migrate": {"file_kb": -1}}`, "migrate.file_kb"},
		{`{"migrate": {"trigger_after_us": -5}}`, "migrate.trigger_after_us"},
		{`{"migrate": {"trigger_after_us": 9223372036854776}}`, "migrate.trigger_after_us"},
		{`{"migrate": {"read_kb": 512, "file_kb": 256}}`, "migrate.read_kb 512 exceeds migrate.file_kb 256"},
		{`{"migrate": {"read_kb": 8192}}`, "migrate.read_kb 8192 exceeds migrate.file_kb 4096"},
		{`{"migrate": {"file_kb": 128}}`, "migrate.read_kb 256 exceeds migrate.file_kb 128"},
		{`{"replication": 13, "scale_out": {"datanodes": 12}}`, "replication 13 exceeds scale_out.datanodes 12"},
		{`{"scale_out": {"datanodes": 2}}`, "replication 3 exceeds scale_out.datanodes 2"},
		{`{"replication": 7, "scale_out": {}}`, "replication 7 exceeds scale_out.datanodes 6"},

		// Counts above their bound would build (or try to) that many hosts,
		// VMs, shards, files or reads.
		{`{"shards": 65}`, "shards 65 out of range (want 0..64)"},
		{`{"replication": 1000}`, "replication"},
		{`{"scale_out": {"datanodes": 1000000000}}`, "scale_out.datanodes 1000000000 out of range (want 0..1000)"},
		{`{"scale_out": {"clients": 1001}}`, "scale_out.clients"},
		{`{"scale_out": {"files": 1000001}}`, "scale_out.files"},
		{`{"scale_out": {"reads": 9223372036854775807}}`, "scale_out.reads"},
		{`{"scale_out": {"domains": 10001}}`, "scale_out.domains"},
		{`{"scale_out": {"racks_per_domain": 2147483647}}`, "scale_out.racks_per_domain"},
		{`{"scale_out": {"hosts_per_rack": 10001}}`, "scale_out.hosts_per_rack"},
		{`{"scale_out": {"domains": 10000, "racks_per_domain": 10000, "hosts_per_rack": 10000}}`, "hosts_per_rack = 1000000000000 hosts"},
		{`{"scale_out": {"racks_per_domain": 100, "hosts_per_rack": 100}}`, "hosts_per_rack = 30000 hosts"},
		{`{"migrate": {"reads_per_stream": 1000001}}`, "migrate.reads_per_stream"},
		{`{"migrate": {"depths": [1, 1001]}}`, "migrate.depths 1001 out of range (want 1..1000)"},
	} {
		_, err := ParseOptions([]byte(tc.raw))
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("ParseOptions(%s) = %v, want an error naming %s", tc.raw, err, tc.field)
		}
	}
}

// TestParseOptionsAcceptsBounds: every bound admits the largest value it
// names, including a 10,000-host topology, and the scale-smoke shape.
func TestParseOptionsAcceptsBounds(t *testing.T) {
	for _, raw := range []string{
		`{"shards": 64, "replication": 64}`,
		`{"scale_out": {"domains": 4, "racks_per_domain": 10, "hosts_per_rack": 25}}`,
		`{"scale_out": {"domains": 1, "racks_per_domain": 1, "hosts_per_rack": 10000, "datanodes": 1000, "clients": 1000}}`,
		`{"scale_out": {"domains": 10, "racks_per_domain": 10, "hosts_per_rack": 100, "files": 1000000, "reads": 1000000}}`,
		`{"migrate": {"depths": [1, 1000], "reads_per_stream": 1000000}}`,
	} {
		if _, err := ParseOptions([]byte(raw)); err != nil {
			t.Errorf("ParseOptions(%s) = %v, want it accepted", raw, err)
		}
	}
}

func TestParseOptionsMalformedJSON(t *testing.T) {
	for _, raw := range []string{
		``,                  // empty file
		`{`,                 // truncated
		`{"seed": }`,        // syntax error
		`{"seed": "nine"}`,  // wrong type
		`[1, 2, 3]`,         // wrong shape
		`{"freq_ghz": 2.0,`, // unterminated object

		// A number beyond float64's range: JSON never yields ±Inf.
		`{"scale_out": {"qps": [1e400]}}`,
	} {
		_, err := ParseOptions([]byte(raw))
		if err == nil {
			t.Errorf("ParseOptions(%q) accepted malformed input", raw)
			continue
		}
		if !strings.Contains(err.Error(), "bad scenario config") {
			t.Errorf("ParseOptions(%q) error %q lacks context", raw, err)
		}
	}
}

// TestParseScaleOptions covers ParseOptions' scale-out path: a "scale_out"
// block yields a ScaleConfig that also carries the shared shards and
// replication keys.
func TestParseScaleOptions(t *testing.T) {
	raw := []byte(`{
		"seed": 3,
		"shards": 4,
		"replication": 3,
		"faults": "rack.kill:after=5,max=1",
		"scale_out": {
			"domains": 4,
			"racks_per_domain": 10,
			"hosts_per_rack": 25,
			"datanodes": 12,
			"clients": 4,
			"files": 8,
			"file_kb": 256,
			"qps": [1000, 4000],
			"reads": 60,
			"kill_rack": "d0r0"
		}
	}`)
	s, err := ParseOptions(raw)
	if err != nil {
		t.Fatal(err)
	}
	opt, sc, mc := s.Opt, s.Scale, s.Migrate
	if sc == nil {
		t.Fatal("scale_out block not detected")
	}
	if mc != nil {
		t.Fatalf("migration detected in a scale-out scenario: %+v", mc)
	}
	if opt.Seed != 3 || opt.Shards != 4 || opt.Replication != 3 || opt.Faults == nil {
		t.Fatalf("opt = %+v", opt)
	}
	if sc.Domains != 4 || sc.RacksPerDomain != 10 || sc.HostsPerRack != 25 {
		t.Fatalf("topology = %+v", sc)
	}
	if sc.Shards != 4 || sc.Replication != 3 || sc.Datanodes != 12 || sc.Clients != 4 {
		t.Fatalf("sc = %+v", sc)
	}
	if sc.Files != 8 || sc.FileSize != 256<<10 || sc.Reads != 60 || sc.KillRack != "d0r0" {
		t.Fatalf("sc = %+v", sc)
	}
	if len(sc.QPSLevels) != 2 || sc.QPSLevels[0] != 1000 || sc.QPSLevels[1] != 4000 {
		t.Fatalf("qps = %v", sc.QPSLevels)
	}
}

func TestParseScaleOptionsAbsent(t *testing.T) {
	s, err := ParseOptions([]byte(`{"seed": 2, "vread": true}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Scale != nil {
		t.Fatal("scale_out detected in a figure-testbed scenario")
	}
}

func TestParseScaleOptionsRejectsTypos(t *testing.T) {
	_, err := ParseOptions([]byte(`{"scale_out": {"domains": 2}, "sead": 1}`))
	if err == nil || !strings.Contains(err.Error(), "sead") {
		t.Fatalf("typo not rejected: %v", err)
	}
}

// TestParseMigrateOptions covers ParseOptions' migration path: a "migrate"
// block yields a MigrationConfig (the sweep's seed stays in Options), with
// kilobyte and microsecond keys converted to bytes and durations.
func TestParseMigrateOptions(t *testing.T) {
	raw := []byte(`{
		"seed": 4,
		"vread": true,
		"migrate": {
			"depths": [1, 2],
			"reads_per_stream": 6,
			"read_kb": 64,
			"file_kb": 512,
			"trigger_after_us": 300
		}
	}`)
	s, err := ParseOptions(raw)
	if err != nil {
		t.Fatal(err)
	}
	opt, sc, mc := s.Opt, s.Scale, s.Migrate
	if mc == nil || sc != nil {
		t.Fatalf("migrate block not selected: scale-out %+v, migration %+v", sc, mc)
	}
	if !opt.VRead || opt.Seed != 4 || len(mc.Depths) != 2 || mc.Depths[1] != 2 || mc.ReadsPerStream != 6 {
		t.Fatalf("opt = %+v, mc = %+v", opt, mc)
	}
	if mc.ReadSize != 64<<10 || mc.FileSize != 512<<10 || mc.TriggerAfter != 300*time.Microsecond {
		t.Fatalf("mc = %+v", mc)
	}
	if _, err := ParseOptions([]byte(`{"migrate": {"depth": [1]}}`)); err == nil || !strings.Contains(err.Error(), "depth") {
		t.Fatalf("typo inside migrate not rejected: %v", err)
	}
}

// TestBypassReachesScaleAndMigration: a scenario file's
// "direct_disk_bypass" reaches the vRead daemons the scale-out and
// migration builders make, not only the figure testbed's, so turning it on
// changes the events those runs fire.
func TestBypassReachesScaleAndMigration(t *testing.T) {
	for _, block := range []string{
		`"scale_out": {"qps": [1000], "reads": 20}`,
		`"migrate": {"depths": [1], "reads_per_stream": 4, "read_kb": 64, "file_kb": 512}`,
	} {
		var events [2]int64
		for i, bypass := range []bool{false, true} {
			raw := fmt.Sprintf(`{"vread": true, "direct_disk_bypass": %t, %s}`, bypass, block)
			s, err := ParseOptions([]byte(raw))
			if err != nil {
				t.Fatal(err)
			}
			opt, sc, mc := s.Opt, s.Scale, s.Migrate
			if opt.VReadConfig.DirectDiskBypass != bypass {
				t.Fatalf("%s: parsed bypass %v, want %v", raw, opt.VReadConfig.DirectDiskBypass, bypass)
			}
			opt.Stats = &RunStats{}
			if sc != nil {
				_, err = RunScale(opt, *sc)
			} else {
				_, err = RunMigrationSweep(opt, *mc)
			}
			if err != nil {
				t.Fatalf("%s: %v", raw, err)
			}
			events[i] = opt.Stats.Events()
		}
		if events[0] == events[1] {
			t.Errorf("{%s}: the bypass run fired the same %d events as the mounted-FS run", block, events[0])
		}
	}
}

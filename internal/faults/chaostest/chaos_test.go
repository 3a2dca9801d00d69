package chaostest

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"vread/internal/core"
	"vread/internal/faults"
)

// smokePlans is the chaos-smoke matrix: every faultpoint appears in at least
// one plan, at rates high enough to fire within a 30-read storm.
var smokePlans = []struct {
	name      string
	spec      string
	transport core.Transport
}{
	{"slow-disk", "disk.read.slow:p=0.4,delay=2ms", core.TransportRDMA},
	{"failing-disk", "disk.read.error:p=0.08;disk.read.torn:p=0.12", core.TransportRDMA},
	{"lossy-net", "net.frame.drop:p=0.04;net.frame.delay:p=0.3,delay=1ms", core.TransportTCP},
	{"flaky-rdma", "rdma.qp.teardown:p=0.03", core.TransportRDMA},
	{"noisy-ring", "ring.doorbell.lost:p=0.4;ring.stall:p=0.3,delay=500us", core.TransportRDMA},
	{"crashy-daemon", "daemon.crash:p=0.05", core.TransportRDMA},
}

var smokeSeeds = []int64{1, 7, 42}

// failureRecord is what the CI artifact carries for a red chaos run: the
// harness, plan spec and seed replay the failure exactly.
type failureRecord struct {
	Harness    string   `json:"harness"`
	Seed       int64    `json:"seed"`
	Plan       string   `json:"plan"`
	Spec       string   `json:"spec"`
	Violations []string `json:"violations"`
}

// failures collects every failing run of the package's storms.
var failures []failureRecord

var update = flag.Bool("update", false, "rewrite "+goldenPath+" from the current code")

// goldenPath pins the outcome of every storm the tests run, one line per
// run: its identity (harness, plan, seed), then fingerprint, OKs, typed
// errors, open misses and any runner-specific tally. The replay tests only
// compare a run with itself; the golden catches a change to a storm across
// commits. After a deliberate change to a storm, refresh it with
//
//	go test ./internal/faults/chaostest -update
//
// and justify the diff.
const goldenPath = "testdata/golden/fingerprints.txt"

// golden is goldenPath by run identity; outcomes holds the lines this
// process produced.
var golden, outcomes = map[string]string{}, map[string]string{}

// checkRun is the one place a storm test reports a run: its outcome must
// match the golden line, each violation fails t, and a failing run files its
// reproducer for the CHAOS_REPORT artifact. extra carries the runner's own
// tallies into the golden line.
func checkRun(t *testing.T, rec failureRecord, res Result, extra string) {
	t.Helper()
	key := fmt.Sprintf("%-10s %-16s seed=%-4d", rec.Harness, rec.Plan, rec.Seed)
	got := fmt.Sprintf("fp=%016x oks=%d typed=%d misses=%d%s", res.Fingerprint, res.OKs, res.TypedErrors, res.OpenMisses, extra)
	outcomes[key] = got
	if want := golden[key]; !*update && got != want {
		t.Errorf("%s: outcome %q, %s has %q (-update rewrites it)", key, got, goldenPath, want)
	}
	for _, v := range res.Violations {
		t.Errorf("%s plan %s seed %d: %s", rec.Harness, rec.Plan, rec.Seed, v)
	}
	if len(res.Violations) > 0 {
		rec.Violations = res.Violations
		failures = append(failures, rec)
	}
}

// TestMain loads the golden before the tests and, after them, rewrites it
// under -update or, when every test ran, reports golden lines no test
// produced. It writes the failing runs of every storm test, as JSON, to the
// file CHAOS_REPORT names, so CI can attach the reproducers as an artifact.
func TestMain(m *testing.M) {
	flag.Parse()
	blob, err := os.ReadFile(goldenPath)
	if err != nil && !*update {
		fmt.Fprintf(os.Stderr, "%v (run with -update to create it)\n", err)
		os.Exit(1)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(blob)), "\n") {
		if key, out, ok := strings.Cut(line, " fp="); ok {
			golden[key] = "fp=" + out
		}
	}
	code := m.Run()
	all := flag.Lookup("test.run").Value.String() == "" && !testing.Short()
	if *update {
		if !all {
			for key, out := range golden {
				if _, ok := outcomes[key]; !ok {
					outcomes[key] = out
				}
			}
		}
		lines := make([]string, 0, len(outcomes))
		for key, out := range outcomes {
			lines = append(lines, key+" "+out+"\n")
		}
		sort.Strings(lines)
		if err := os.WriteFile(goldenPath, []byte(strings.Join(lines, "")), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", goldenPath, err)
			code = 1
		}
	} else if all && code == 0 {
		for key := range golden {
			if _, ok := outcomes[key]; !ok {
				fmt.Fprintf(os.Stderr, "%s: %q has no storm test (-update drops it)\n", goldenPath, key)
				code = 1
			}
		}
	}
	if path := os.Getenv("CHAOS_REPORT"); path != "" && len(failures) > 0 {
		blob, err := json.MarshalIndent(failures, "", "  ")
		if err == nil {
			err = os.WriteFile(path, blob, 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "writing CHAOS_REPORT: %v\n", err)
			code = 1
		}
	}
	os.Exit(code)
}

// TestChaosSmoke sweeps the seed × plan matrix, requiring every run to hold
// all invariants and the suite as a whole to exercise most of the fault
// surface.
func TestChaosSmoke(t *testing.T) {
	distinct := make(map[string]bool)
	for _, plan := range smokePlans {
		spec, err := faults.ParseSpec(plan.spec)
		if err != nil {
			t.Fatalf("plan %s: %v", plan.name, err)
		}
		for _, seed := range smokeSeeds {
			res := Run(Options{Seed: seed, Spec: spec, Transport: plan.transport})
			checkRun(t, failureRecord{Harness: "Run", Seed: seed, Plan: plan.name, Spec: plan.spec}, res, "")
			if res.OKs == 0 {
				t.Errorf("plan %s seed %d: no read survived (%d typed errors, %d open misses)",
					plan.name, seed, res.TypedErrors, res.OpenMisses)
			}
			for _, pc := range res.FaultCounts {
				if pc.Fires > 0 {
					distinct[pc.Point] = true
				}
			}
		}
	}
	if len(distinct) < 6 {
		t.Errorf("only %d distinct faultpoints fired across the smoke matrix, want >= 6: %v",
			len(distinct), distinct)
	}
}

// TestChaosSameSeedIsByteIdentical is the determinism acceptance criterion:
// the same (seed, plan) pair must replay to the same fingerprint — outcome
// stream, virtual timestamps, and fault tallies included — so a failing seed
// is a complete reproducer.
func TestChaosSameSeedIsByteIdentical(t *testing.T) {
	for _, plan := range smokePlans {
		spec, err := faults.ParseSpec(plan.spec)
		if err != nil {
			t.Fatal(err)
		}
		o := Options{Seed: 42, Spec: spec, Transport: plan.transport}
		a, b := Run(o), Run(o)
		if a.Fingerprint != b.Fingerprint {
			t.Errorf("plan %s: same-seed fingerprints differ: %016x vs %016x",
				plan.name, a.Fingerprint, b.Fingerprint)
		}
		if a.Fingerprint == 0 {
			t.Errorf("plan %s: empty fingerprint", plan.name)
		}
	}
	// Different seeds must actually change the schedule (guards against a
	// fingerprint that ignores its inputs).
	spec, _ := faults.ParseSpec(smokePlans[0].spec)
	a := Run(Options{Seed: 1, Spec: spec})
	b := Run(Options{Seed: 2, Spec: spec})
	if a.Fingerprint == b.Fingerprint {
		t.Error("different seeds produced identical fingerprints")
	}
}

// TestChaosFaultFreeBaseline: with no plan armed, the harness itself must be
// clean — every read ok, nothing fired, no violations.
func TestChaosFaultFreeBaseline(t *testing.T) {
	res := Run(Options{Seed: 5, Reads: 10})
	checkRun(t, failureRecord{Harness: "Run", Seed: 5, Plan: "fault-free"}, res, "")
	if res.OKs != res.Reads || res.TypedErrors != 0 || res.OpenMisses != 0 {
		t.Fatalf("baseline: %d/%d ok, %d errors, %d misses",
			res.OKs, res.Reads, res.TypedErrors, res.OpenMisses)
	}
	if res.DistinctFired() != 0 {
		t.Fatalf("faults fired with no plan armed: %+v", res.FaultCounts)
	}
}

// combinedSpec arms every classic faultpoint at once.
const combinedSpec = "disk.read.slow:p=0.2,delay=1ms;disk.read.error:p=0.03;disk.read.torn:p=0.05;" +
	"net.frame.drop:p=0.02;net.frame.delay:p=0.2,delay=500us;" +
	"rdma.qp.teardown:p=0.02;ring.doorbell.lost:p=0.2;ring.stall:p=0.2,delay=200us;" +
	"daemon.crash:p=0.02"

// TestChaosCombinedStorm arms everything at once for a longer run — the
// closest the suite gets to the paper's "modified virtio + RDMA under real
// clouds" worst case.
func TestChaosCombinedStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("combined storm skipped in -short mode")
	}
	spec, err := faults.ParseSpec(combinedSpec)
	if err != nil {
		t.Fatal(err)
	}
	res := Run(Options{Seed: 1234, Spec: spec, Reads: 60, Deadline: 4 * time.Hour})
	checkRun(t, failureRecord{Harness: "Run", Seed: 1234, Plan: "combined", Spec: combinedSpec}, res, "")
	if res.OKs == 0 {
		t.Fatal("no read survived the combined storm")
	}
	t.Logf("combined storm: %d ok / %d typed errors / %d misses; %d distinct faultpoints fired",
		res.OKs, res.TypedErrors, res.OpenMisses, res.DistinctFired())
}

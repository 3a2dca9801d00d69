// Package chaostest is the invariant-checking chaos harness for the full
// vRead read path: it builds a two-host cluster, runs a seeded random read
// workload under a fault plan, and checks the properties that must survive
// any fault schedule:
//
//   - every read returns exactly the written bytes or a typed error — never
//     silently corrupted or truncated data;
//   - every trace span opened on a read is closed, fault paths included;
//   - the workload terminates (no read wedges forever) and leaves nothing
//     behind: Env.Pending drains to zero and no remote read stays pending;
//   - the entire run is deterministic — two runs with the same (seed, plan)
//     produce byte-identical outcome streams, so a failing seed IS the
//     reproducer.
//
// The harness is a plain package (not _test) so the chaos smoke test, the
// soak test, and the fault-sweep experiment can all drive it.
package chaostest

import (
	"cmp"
	"fmt"
	"math/rand"
	"time"

	"vread/internal/core"
	"vread/internal/data"
	"vread/internal/experiments"
	"vread/internal/faults"
	"vread/internal/sim"
)

// Options selects one chaos run. The zero value of every field but Seed and
// Spec is replaced by a sensible default.
type Options struct {
	Seed      int64
	Spec      faults.Spec
	Transport core.Transport
	Files     int           // files written before the storm (default 3)
	FileSize  int64         // bytes per file (default 1 MiB)
	Reads     int           // read operations in the storm (default 30)
	Deadline  time.Duration // virtual-time budget for the run (default 1h)
}

// The defaults the storms share: Run's files and file size, which RunHostile
// writes too, and every storm's virtual-time budget. Blocks on the two-host
// testbed are stormBlockSize, so each file is one block.
const (
	stormFiles     = 3
	stormFileSize  = 1 << 20
	stormBlockSize = 4 << 20
	stormDeadline  = time.Hour
)

// Result is one run's observable outcome.
type Result struct {
	Fingerprint uint64 // FNV-1a over the outcome stream, virtual times included
	Reads       int    // read operations attempted
	OKs         int    // reads that returned correct bytes
	TypedErrors int    // reads that failed with a typed vRead error
	OpenMisses  int    // vRead opens that fell back (e.g. after a crash)
	FaultCounts []faults.PointCount
	Violations  []string // broken invariants; empty on a clean run
}

// DistinctFired counts faultpoints that fired at least once.
func (r Result) DistinctFired() int {
	n := 0
	for _, pc := range r.FaultCounts {
		if pc.Fires > 0 {
			n++
		}
	}
	return n
}

// Run executes one chaos scenario and returns its outcome. It never calls
// testing APIs: violations are data, so callers can aggregate them across a
// seed sweep before failing.
func Run(o Options) Result {
	res := Result{}
	s := newStorm(o.Seed, o.Spec, &res)
	defer s.c.Close()
	mgr, writer, libs := experiments.BuildReaders(s.c, []string{"client"}, stormBlockSize, s.place,
		core.Config{Transport: o.Transport, Faults: s.plan})

	files, size := cmp.Or(o.Files, stormFiles), cmp.Or(o.FileSize, stormFileSize)
	s.run("chaos", writer, "/chaos", files, size, func(p *sim.Proc, rng *rand.Rand, contents []data.Pattern) {
		for i := 0; i < cmp.Or(o.Reads, 30); i++ {
			if s.blockRead(p, rng, libs[0], contents, fmt.Sprintf("chaos-read-%d", i), fmt.Sprintf("%d|", i)) == core.ReadMiss {
				// A miss (crash-invalidated mount) degrades; it must not
				// corrupt. Real deployments take the vanilla socket path and
				// the restarted daemon remounts — model that resync here so
				// later reads exercise vRead again.
				mgr.ResyncHost("host1")
				mgr.ResyncHost("host2")
			}
		}
	})

	if !s.settle(cmp.Or(o.Deadline, stormDeadline), mgr) {
		return res
	}
	client := mgr.DaemonStats("client")
	s.seal("downgrades=%d retries=%d crashes=%d\n", mgr.Downgrades(), client.RemoteRetries, client.Crashes)
	return res
}

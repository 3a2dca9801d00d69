package chaostest

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"strings"
	"time"

	"vread/internal/cluster"
	"vread/internal/core"
	"vread/internal/data"
	"vread/internal/faults"
	"vread/internal/hdfs"
	"vread/internal/sim"
	"vread/internal/trace"
)

// tag renders a read attempt for a fingerprint line.
func tag(a core.ReadAttempt) string {
	switch a.Outcome {
	case core.ReadOK:
		return "ok"
	case core.ReadMiss:
		return "openmiss"
	case core.ReadTyped:
		return "err:" + a.Err.Error()
	case core.ReadCorrupt:
		return "corrupt"
	}
	return "untyped:" + a.Err.Error()
}

// storm is the skeleton the three chaos runners share: the cluster with its
// manager-wide fault plan, the request tracer, and the outcome stream that
// folds into the result's fingerprint.
type storm struct {
	c      *cluster.Cluster
	seed   int64
	spec   faults.Spec
	plan   *faults.Plan
	guest  *faults.Plan // RunHostile's plan for hostileGuestPoints; nil otherwise
	tracer *trace.Tracer
	fp     hash.Hash64
	res    *Result
	done   bool
	// blockDN[id-1] is block id's datanode under place.
	blockDN []string
}

func newStorm(seed int64, spec faults.Spec, res *Result) *storm {
	c := cluster.New(seed, cluster.Params{})
	return &storm{c: c, seed: seed, spec: spec, plan: faults.NewPlan(c.Env),
		tracer: trace.NewTracer(c.Env, 1), fp: fnv.New64a(), res: res}
}

// record folds one outcome line into the fingerprint.
func (s *storm) record(format string, args ...interface{}) {
	fmt.Fprintf(s.fp, format, args...)
}

// violate records a broken invariant.
func (s *storm) violate(format string, args ...interface{}) {
	s.res.Violations = append(s.res.Violations, fmt.Sprintf(format, args...))
}

// place is the block placement of Run and RunHostile: blocks alternate dn1,
// dn2 (the policy is called once per block in block-ID order), so a storm
// exercises both the local (ring) and remote (RDMA/TCP) halves of the read
// path.
func (s *storm) place(string, string, int) []string {
	dn := [2]string{"dn1", "dn2"}[len(s.blockDN)%2]
	s.blockDN = append(s.blockDN, dn)
	return []string{dn}
}

// readRange draws a non-empty byte range of c and the bytes it must read
// back.
func readRange(rng *rand.Rand, c data.Pattern) (off, n int64, want data.Slice) {
	off = int64(rng.Intn(int(c.Size - 1)))
	n = int64(rng.Intn(int(c.Size-off))) + 1
	return off, n, data.NewSlice(c).Sub(off, n)
}

// blockRead is one read of a Run or RunHostile storm: a random block under
// place, a random range of its file (one block per file at these sizes),
// the verified read traced as name, and its outcome line recorded after the
// runner's prefix.
func (s *storm) blockRead(p *sim.Proc, rng *rand.Rand, lib *core.Lib, contents []data.Pattern, name, prefix string) core.ReadOutcome {
	s.res.Reads++
	blk := int64(rng.Intn(len(s.blockDN))) + 1
	off, n, want := readRange(rng, contents[int(blk-1)%len(contents)])
	tr := s.tracer.Request(name)
	a := lib.VerifiedRead(p, tr, s.blockDN[blk-1:blk], hdfs.BlockID(blk), off, n, want, nil)
	tr.Finish(n)
	s.record("%sblk%d|%d|%d|%s|%d\n", prefix, blk, off, n, tag(a), s.c.Env.Now())
	s.count(a, "%s blk%d [%d,%d)", name, blk, off, off+n)
	return a.Outcome
}

// run starts the storm's Proc. Its quiet phase writes files files of size
// bytes as dir/f<i> through writer before any faultpoint arms, so every
// failure afterwards has known-good bytes to check against. Then the spec
// arms, hostile ring points on the guest plan and the rest manager-wide, and
// body runs the read storm over the written contents.
func (s *storm) run(name string, writer *hdfs.Client, dir string, files int, size int64,
	body func(p *sim.Proc, rng *rand.Rand, contents []data.Pattern)) {
	s.c.Go(name, func(p *sim.Proc) {
		contents := make([]data.Pattern, files)
		for i := range contents {
			contents[i] = data.Pattern{Seed: uint64(s.seed)*1000 + uint64(i), Size: size}
			if err := writer.WriteFile(p, fmt.Sprintf("%s/f%d", dir, i), contents[i]); err != nil {
				s.violate("write f%d: %v", i, err)
				return
			}
		}
		for _, r := range s.spec {
			if s.guest != nil && hostileGuestPoints[r.Point] {
				s.guest.Set(r)
			} else {
				s.plan.Set(r)
			}
		}
		body(p, s.c.Env.Rand(), contents)
		s.done = true
	})
}

// pingPong evaluates mount.migrate for round i and, when it fires, moves
// vm's mount to away, or back home when it is already there.
func (s *storm) pingPong(p *sim.Proc, mgr *core.Manager, i int, vm, home, away string) bool {
	dst := away
	if s.c.VM(vm).Host.Name == away {
		dst = home
	}
	mig, fired, err := mgr.MaybeMigrateMount(p, vm, dst)
	if err != nil {
		s.violate("round %d: migration of %s: %v", i, vm, err)
		return false
	}
	if fired {
		s.record("%d|migrate|%s->%s|%d|%d\n", i, mig.SrcHost, mig.DstHost, mig.Captured, s.c.Env.Now())
	}
	return fired
}

// count tallies a read's final outcome; wrong bytes and untyped errors are
// violations, named by the what format.
func (s *storm) count(a core.ReadAttempt, what string, args ...interface{}) {
	switch a.Outcome {
	case core.ReadOK:
		s.res.OKs++
	case core.ReadTyped:
		s.res.TypedErrors++
	case core.ReadMiss:
		s.res.OpenMisses++
	case core.ReadCorrupt:
		s.violate("%s: silent corruption", fmt.Sprintf(what, args...))
	default:
		s.violate("%s: untyped error %v", fmt.Sprintf(what, args...), a.Err)
	}
}

// settle runs the engine to the storm's deadline and turns the drain check
// into violations. It reports false when the storm did not finish; the
// runner then returns without a fingerprint.
func (s *storm) settle(deadline time.Duration, mgr *core.Manager) bool {
	if err := s.c.Env.RunUntil(s.c.Env.Now() + deadline); err != nil {
		s.violate("engine: %v", err)
		return false
	}
	if err := mgr.Drained(s.tracer, s.done); err != nil {
		for _, v := range strings.Split(err.Error(), "\n") {
			s.violate("%s", v)
		}
	}
	return s.done
}

// seal is the fingerprint tail: it records the runner's summary line, then
// the fault tallies of the manager-wide plan and the guest plan, and stores
// the tallies and the fingerprint in the result.
func (s *storm) seal(summary string, args ...interface{}) {
	s.record(summary, args...)
	s.res.FaultCounts = append(s.plan.Counts(), s.guest.Counts()...)
	for _, pc := range s.res.FaultCounts {
		s.record("fault|%s|%d|%d\n", pc.Point, pc.Evals, pc.Fires)
	}
	s.res.Fingerprint = s.fp.Sum64()
}

// Package shard runs many sim.Envs in parallel under conservative lookahead.
//
// The serial engine keeps one Env per experiment cell; a datacenter-scale
// scenario with a thousand simulated hosts then advances on one core no
// matter how many the machine has. This package partitions such a scenario
// into logical processes (LPs) — one Env per simulated host — groups the LPs
// into K shards, and advances the shards concurrently with a classic
// CMB-style null-message-free window protocol:
//
//	W   = min over LPs of the next pending event time (Env.NextAt)
//	end = W + L, where L is the lookahead — a lower bound on the latency of
//	      any cross-LP interaction (netsim's minimum link latency)
//
// Every LP may execute its events in [W, end) without synchronizing: any
// message another LP emits during the window was sent at some t >= W and
// arrives at t+L >= end, strictly after the window. Workers advance their
// shards to end-1, meet at a barrier (par.Gang), the coordinator drains the
// cross-LP mailboxes, and the next window begins. Virtual time advances by
// at least L per epoch, so the loop never stalls.
//
// Determinism is partition-invariant by construction, not by luck:
//
//   - A cross-LP send goes through a mailbox at every K — including K=1 —
//     while a same-LP send schedules directly. The set of mailbox messages
//     per epoch is therefore identical for every K.
//   - Mailboxes drain on the coordinator between rounds, sorted by
//     (dst, at, src, srcSeq) — a total order independent of worker count,
//     interleaving, and completion order. Destination Envs assign their
//     event sequence numbers in that order, so every Env's heap history is
//     byte-identical at any K.
//   - RunUntil pins every Env's clock to exactly end-1 at the barrier, so
//     epoch boundaries leave no per-K residue in the clocks.
//
// A K-shard run and the 1-shard serial run therefore produce identical rows,
// traces, and fingerprints; the experiment suite asserts this byte-for-byte.
package shard

import (
	"fmt"
	"sort"
	"time"

	"vread/internal/par"
	"vread/internal/sim"
)

// Config sizes a Coordinator.
type Config struct {
	// Shards is the worker/shard count K. Values below 1 (and above the LP
	// count) are clamped. K=1 runs every LP on the calling goroutine with no
	// goroutines spawned at all.
	Shards int
	// Lookahead is the conservative window width L: no cross-LP Send may
	// deliver in less than L. netsim.Config.Lookahead() is the natural
	// source. Must be positive.
	Lookahead time.Duration
}

// Coordinator owns the LPs, the shard assignment, and the epoch loop.
type Coordinator struct {
	cfg  Config
	lps  []*LP
	mail []msg
}

// LP is one logical process: a single-threaded Env plus its cross-LP
// mailbox. All simulation state reachable from the Env's callbacks must be
// private to the LP; the only sanctioned cross-LP channel is Send.
type LP struct {
	id    int
	shard int
	env   *sim.Env
	coord *Coordinator
	seq   uint64
	out   []msg
}

type msg struct {
	at  int64 // absolute arrival time, ns
	src int
	seq uint64
	dst int
	fn  func()
}

// New validates cfg and returns an empty Coordinator.
func New(cfg Config) *Coordinator {
	if cfg.Lookahead <= 0 {
		panic(fmt.Sprintf("shard: non-positive lookahead %v", cfg.Lookahead))
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	return &Coordinator{cfg: cfg}
}

// AddLP registers env as the next LP and returns its handle. The default
// shard assignment is contiguous blocks in registration order — callers that
// register topology-major (rack by rack) get rack-contiguous shards for
// free; SetShard overrides per LP.
func (c *Coordinator) AddLP(env *sim.Env) *LP {
	lp := &LP{id: len(c.lps), shard: -1, env: env, coord: c}
	c.lps = append(c.lps, lp)
	return lp
}

// ID returns the LP's registration index.
func (lp *LP) ID() int { return lp.id }

// Env returns the LP's Env.
func (lp *LP) Env() *sim.Env { return lp.env }

// SetShard pins the LP to shard s, overriding the contiguous default.
func (lp *LP) SetShard(s int) { lp.shard = s }

// Shard returns the pinned shard, or -1 when the LP rides the contiguous
// default assignment.
func (lp *LP) Shard() int { return lp.shard }

// Send schedules fn on dst's Env at lp's current time plus delay. A same-LP
// send schedules directly (no lookahead constraint); a cross-LP send rides
// the mailbox and must respect the lookahead, because the window protocol's
// safety — no message lands inside an executing window — is exactly the
// claim that cross-LP delays are >= L.
func (lp *LP) Send(dst *LP, delay time.Duration, fn func()) {
	if dst == lp {
		lp.env.Schedule(delay, fn)
		return
	}
	if delay < lp.coord.cfg.Lookahead {
		panic(fmt.Sprintf("shard: cross-LP delay %v below lookahead %v", delay, lp.coord.cfg.Lookahead))
	}
	lp.seq++
	lp.out = append(lp.out, msg{
		at:  int64(lp.env.Now() + delay),
		src: lp.id,
		seq: lp.seq,
		dst: dst.id,
		fn:  fn,
	})
}

// Shards returns the effective shard count for the current LP set.
func (c *Coordinator) Shards() int {
	k := c.cfg.Shards
	if k > len(c.lps) {
		k = len(c.lps)
	}
	if k < 1 {
		k = 1
	}
	return k
}

// Fired returns the total events executed across all LPs.
func (c *Coordinator) Fired() uint64 {
	var total uint64
	for _, lp := range c.lps {
		total += lp.env.Fired()
	}
	return total
}

// Run advances all LPs until no events remain anywhere, mailboxes included.
// Scenarios with self-rearming daemons never drain; bound those with
// RunUntil instead.
func (c *Coordinator) Run() error { return c.run(-1) }

// RunUntil advances all LPs through every event with timestamp <= t and
// leaves every Env's clock at exactly t.
func (c *Coordinator) RunUntil(t time.Duration) error {
	if t < 0 {
		return fmt.Errorf("shard: RunUntil(%v) is negative", t)
	}
	return c.run(t)
}

func (c *Coordinator) run(horizon time.Duration) error {
	if len(c.lps) == 0 {
		return nil
	}
	byShard := c.assign()
	gang := par.NewGang(len(byShard))
	defer gang.Close()
	errs := make([]error, len(c.lps))
	lookahead := int64(c.cfg.Lookahead)

	for {
		c.drain()
		window, any := c.minNext()
		if !any || (horizon >= 0 && window > int64(horizon)) {
			break
		}
		end := window + lookahead
		if horizon >= 0 && end > int64(horizon)+1 {
			end = int64(horizon) + 1
		}
		deadline := time.Duration(end - 1)
		rerr := gang.Round(func(w int) error {
			for _, lp := range byShard[w] {
				if err := lp.env.RunUntil(deadline); err != nil {
					errs[lp.id] = err
					return nil // keep the barrier; surfaced below in LP order
				}
			}
			return nil
		})
		if rerr != nil {
			return rerr
		}
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
	}
	if horizon >= 0 {
		// No events remain at or before the horizon; pin every clock to it.
		for _, lp := range c.lps {
			if lp.env.Now() < horizon {
				if err := lp.env.RunUntil(horizon); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// assign buckets LPs by shard: explicit SetShard pins win, everything else
// fills contiguous blocks in registration order.
func (c *Coordinator) assign() [][]*LP {
	k := c.Shards()
	byShard := make([][]*LP, k)
	n := len(c.lps)
	for i, lp := range c.lps {
		s := lp.shard
		if s < 0 || s >= k {
			s = i * k / n
		}
		byShard[s] = append(byShard[s], lp)
	}
	return byShard
}

// drain moves every LP's outbox into the destination Envs in the canonical
// (dst, at, src, srcSeq) order. Runs on the coordinator between rounds: no
// LP is executing, so no locks are needed and the resulting Env sequence
// numbering is identical for every shard count.
func (c *Coordinator) drain() {
	c.mail = c.mail[:0]
	for _, lp := range c.lps {
		c.mail = append(c.mail, lp.out...)
		for i := range lp.out {
			lp.out[i].fn = nil
		}
		lp.out = lp.out[:0]
	}
	if len(c.mail) == 0 {
		return
	}
	sort.Slice(c.mail, func(i, j int) bool {
		a, b := c.mail[i], c.mail[j]
		if a.dst != b.dst {
			return a.dst < b.dst
		}
		if a.at != b.at {
			return a.at < b.at
		}
		if a.src != b.src {
			return a.src < b.src
		}
		return a.seq < b.seq
	})
	for _, m := range c.mail {
		dst := c.lps[m.dst]
		dst.env.Schedule(time.Duration(m.at)-dst.env.Now(), m.fn)
	}
}

// minNext returns the minimum NextAt bound across LPs.
func (c *Coordinator) minNext() (int64, bool) {
	best, any := int64(0), false
	for _, lp := range c.lps {
		if at, ok := lp.env.NextAt(); ok && (!any || at < best) {
			best, any = at, true
		}
	}
	return best, any
}

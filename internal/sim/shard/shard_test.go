package shard

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"vread/internal/sim"
)

const testLookahead = 8 * time.Microsecond

// buildRing constructs n LPs that bounce messages around a ring: each LP
// runs a local timer cadence from its own seeded RNG and forwards a token to
// its successor with a randomized cross-LP delay >= lookahead. Every receipt
// appends "lp/time/hop" to that LP's log. The returned run closure executes
// the scenario with K shards and returns the concatenated per-LP logs — the
// byte stream that must be identical for every K.
func ringRun(t *testing.T, n, k int, horizon time.Duration) string {
	t.Helper()
	c := New(Config{Shards: k, Lookahead: testLookahead})
	logs := make([][]string, n)
	lps := make([]*LP, n)
	for i := 0; i < n; i++ {
		lps[i] = c.AddLP(sim.NewEnv(int64(1000 + i)))
	}
	// recv[i] is LP i's token handler. A delivered fn runs on the receiving
	// LP, so it may touch only that LP's state: the sender captures the
	// receiver's handler, never its own.
	recv := make([]func(hop int), n)
	for i := 0; i < n; i++ {
		i := i
		lp := lps[i]
		env := lp.Env()
		// Local churn: a self-rearming timer with jitter from the LP's RNG,
		// interleaving local events with the cross-LP token traffic.
		var tick func()
		tick = func() {
			logs[i] = append(logs[i], fmt.Sprintf("tick %d @%v", i, env.Now()))
			env.Schedule(time.Duration(env.Rand().Intn(40))*time.Microsecond+time.Microsecond, tick)
		}
		env.Schedule(time.Duration(i)*time.Microsecond, tick)

		// The ring token: receive, log, forward after a random >= lookahead
		// delay drawn from this LP's RNG.
		recv[i] = func(hop int) {
			logs[i] = append(logs[i], fmt.Sprintf("token hop %d @%v", hop, env.Now()))
			if hop >= 64 {
				return
			}
			d := testLookahead + time.Duration(env.Rand().Intn(30))*time.Microsecond
			next := recv[(i+1)%n]
			lp.Send(lps[(i+1)%n], d, func() { next(hop + 1) })
		}
		if i == 0 {
			env.Schedule(5*time.Microsecond, func() { recv[0](0) })
		}
	}
	if err := c.RunUntil(horizon); err != nil {
		t.Fatal(err)
	}
	for i, lp := range lps {
		if got := lp.Env().Now(); got != horizon {
			t.Fatalf("LP %d clock = %v after RunUntil(%v)", i, got, horizon)
		}
	}
	var b strings.Builder
	for i, l := range logs {
		fmt.Fprintf(&b, "== lp %d (%d events fired) ==\n", i, lps[i].Env().Fired())
		for _, line := range l {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// TestShardCountInvariance is the tentpole contract: the same scenario run
// with 1, 2, 3, and 4 shards produces byte-identical logs, event counts
// included. Run with -race this also covers the window protocol's claim
// that concurrent shards never touch each other's state.
func TestShardCountInvariance(t *testing.T) {
	const n = 8
	horizon := 3 * time.Millisecond
	want := ringRun(t, n, 1, horizon)
	if !strings.Contains(want, "token hop 64") {
		t.Fatalf("scenario too short: ring never completed 64 hops\n%s", want)
	}
	for _, k := range []int{2, 3, 4, n, 2 * n} {
		if got := ringRun(t, n, k, horizon); got != want {
			t.Fatalf("K=%d diverges from serial run:\n--- serial ---\n%s\n--- K=%d ---\n%s", k, want, k, got)
		}
	}
}

// TestShardRunDrainsToEmpty covers Run (no horizon): a finite scenario ends
// with every queue empty and all cross-LP messages delivered.
func TestShardRunDrainsToEmpty(t *testing.T) {
	c := New(Config{Shards: 2, Lookahead: testLookahead})
	a := c.AddLP(sim.NewEnv(1))
	b := c.AddLP(sim.NewEnv(2))
	got := ""
	a.Env().Schedule(time.Microsecond, func() {
		a.Send(b, testLookahead, func() {
			got += fmt.Sprintf("b got ping @%v; ", b.Env().Now())
			b.Send(a, testLookahead, func() {
				got += fmt.Sprintf("a got pong @%v", a.Env().Now())
			})
		})
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	want := "b got ping @9µs; a got pong @17µs"
	if got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
	if a.Env().Pending() != 0 || b.Env().Pending() != 0 {
		t.Fatalf("pending events after Run: a=%d b=%d", a.Env().Pending(), b.Env().Pending())
	}
}

// TestShardLookaheadViolationPanics pins the safety rail: a cross-LP send
// below the lookahead is a protocol violation and must panic rather than
// silently corrupt the window invariant.
func TestShardLookaheadViolationPanics(t *testing.T) {
	c := New(Config{Shards: 2, Lookahead: testLookahead})
	a := c.AddLP(sim.NewEnv(1))
	b := c.AddLP(sim.NewEnv(2))
	defer func() {
		if recover() == nil {
			t.Fatal("sub-lookahead cross-LP send did not panic")
		}
	}()
	a.Send(b, testLookahead-time.Nanosecond, func() {})
}

// TestShardSameLPSendIsUnrestricted: a same-LP send is a plain Schedule and
// may use any delay, including zero.
func TestShardSameLPSendIsUnrestricted(t *testing.T) {
	c := New(Config{Shards: 2, Lookahead: testLookahead})
	a := c.AddLP(sim.NewEnv(1))
	c.AddLP(sim.NewEnv(2))
	fired := false
	a.Env().Schedule(time.Microsecond, func() {
		a.Send(a, 0, func() { fired = true })
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("same-LP zero-delay send never fired")
	}
}

// TestShardProcErrorPropagates: a panicking proc inside any LP surfaces as
// the coordinator's run error, and the error is the same regardless of K.
func TestShardProcErrorPropagates(t *testing.T) {
	run := func(k int) error {
		c := New(Config{Shards: k, Lookahead: testLookahead})
		for i := 0; i < 4; i++ {
			i := i
			lp := c.AddLP(sim.NewEnv(int64(i)))
			env := lp.Env()
			if i == 2 {
				env.GoAfter(50*time.Microsecond, "boom", func(p *sim.Proc) {
					panic("lp 2 exploded")
				})
			} else {
				env.Schedule(time.Millisecond, func() {})
			}
		}
		return c.RunUntil(2 * time.Millisecond)
	}
	serial, parallel := run(1), run(4)
	if serial == nil || parallel == nil {
		t.Fatalf("proc panic did not surface: serial=%v parallel=%v", serial, parallel)
	}
	if serial.Error() != parallel.Error() {
		t.Fatalf("error differs by shard count: %q vs %q", serial, parallel)
	}
	if !strings.Contains(serial.Error(), "lp 2 exploded") {
		t.Fatalf("error lost the panic payload: %v", serial)
	}
}

// TestShardExplicitAssignment: SetShard pins override the contiguous
// default, and out-of-range pins fall back to it.
func TestShardExplicitAssignment(t *testing.T) {
	c := New(Config{Shards: 2, Lookahead: testLookahead})
	for i := 0; i < 4; i++ {
		lp := c.AddLP(sim.NewEnv(int64(i)))
		if i%2 == 1 {
			lp.SetShard(0)
		}
	}
	c.lps[0].SetShard(99) // out of range: contiguous fallback
	byShard := c.assign()
	if len(byShard) != 2 {
		t.Fatalf("assign built %d shards, want 2", len(byShard))
	}
	ids := func(lps []*LP) []int {
		var out []int
		for _, lp := range lps {
			out = append(out, lp.id)
		}
		return out
	}
	got0, got1 := fmt.Sprint(ids(byShard[0])), fmt.Sprint(ids(byShard[1]))
	if got0 != "[0 1 3]" || got1 != "[2]" {
		t.Fatalf("assignment = %s / %s, want [0 1 3] / [2]", got0, got1)
	}
}

// TestShardEmptyAndTrivial: zero LPs and an empty schedule both terminate
// immediately.
func TestShardEmptyAndTrivial(t *testing.T) {
	c := New(Config{Shards: 4, Lookahead: testLookahead})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	lp := c.AddLP(sim.NewEnv(1))
	if err := c.RunUntil(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := lp.Env().Now(); got != time.Millisecond {
		t.Fatalf("clock = %v after RunUntil(1ms) with no events", got)
	}
}

package core

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"vread/internal/data"
	"vread/internal/sim"
)

// White-box ring tests: the shared-memory channel invariants the daemon and
// driver rely on.

// TestRingSlotTokensConserved: a daemon-like producer taking runs of up to
// 37 tokens and putting each run on the ring as one item, and a slower
// guest-like consumer handing each run back in two pieces (k-1, then 1, as
// drain does around a batch charge), never create or lose a token, and take
// never hands out more than asked, nor zero while a token is free. The
// queued items never outnumber the tokens in use: every item holds at least
// one, which is the bound that lets ring.full be unbounded.
func TestRingSlotTokensConserved(t *testing.T) {
	env := sim.NewEnv(1)
	cfg := Config{}.WithDefaults()
	r := newRing(env, cfg, "vm1")
	if r.free != int64(cfg.RingSlots) {
		t.Fatalf("initial free slots = %d, want %d", r.free, cfg.RingSlots)
	}
	var held int64   // tokens taken and not yet given back
	var queued int64 // items put and not yet popped
	exhausted := 0
	check := func() {
		if r.free < 0 || r.free+held != int64(cfg.RingSlots) {
			t.Fatalf("slot tokens leaked: free %d + held %d != %d", r.free, held, cfg.RingSlots)
		}
		if queued > held {
			t.Fatalf("%d items queued on %d tokens in use", queued, held)
		}
	}
	env.Go("producer", func(p *sim.Proc) {
		for i := 0; i < 5000; i++ {
			want := int64(1 + i%37)
			k := r.take(want)
			for k == 0 {
				r.freed.Wait(p)
				k = r.take(want)
			}
			if k < 1 || k > want {
				t.Errorf("take(%d) = %d", want, k)
			}
			held += k
			if r.free == 0 {
				exhausted++
			}
			r.full.Put(p, ringSlot{s: data.NewSlice(data.Pattern{Seed: 1, Size: k * cfg.SlotBytes})})
			queued++
			check()
		}
		r.full.Close()
	})
	env.Go("consumer", func(p *sim.Proc) {
		for {
			item, ok := r.full.Get(p)
			if !ok {
				return
			}
			queued--
			k := r.slotsFor(item.s.Len())
			held -= k - 1
			r.give(k - 1)
			check()
			p.Sleep(time.Microsecond)
			held--
			r.give(1)
			check()
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if exhausted == 0 {
		t.Fatal("the producer never ran the ring out of tokens")
	}
	if r.free != int64(cfg.RingSlots) {
		t.Fatalf("ring not drained: %d free", r.free)
	}
}

func TestRingSlotsFor(t *testing.T) {
	env := sim.NewEnv(1)
	r := newRing(env, Config{SlotBytes: 4096}.WithDefaults(), "vm1")
	cases := []struct {
		n    int64
		want int64
	}{
		{0, 0}, {1, 1}, {4095, 1}, {4096, 1}, {4097, 2}, {128 << 10, 32},
	}
	for _, c := range cases {
		if got := r.slotsFor(c.n); got != c.want {
			t.Errorf("slotsFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

// Property: slotsFor never under-provisions (slots × slotBytes >= n) and
// never wastes a whole slot.
func TestRingSlotsForProperty(t *testing.T) {
	env := sim.NewEnv(1)
	r := newRing(env, Config{}.WithDefaults(), "vm1")
	f := func(raw uint32) bool {
		n := int64(raw)
		s := r.slotsFor(n)
		if s*r.cfg.SlotBytes < n {
			return false
		}
		return n == 0 || (s-1)*r.cfg.SlotBytes < n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestRingRequestSerialization: the request mutex admits one reader at a
// time, so interleaved requests never interleave their slots.
func TestRingRequestSerialization(t *testing.T) {
	env := sim.NewEnv(1)
	cfg := Config{}.WithDefaults()
	r := newRing(env, cfg, "vm1")
	inCritical := 0
	maxInCritical := 0
	for i := 0; i < 4; i++ {
		env.Go(fmt.Sprintf("reader%d", i), func(p *sim.Proc) {
			for j := 0; j < 10; j++ {
				r.reqMu.Lock(p)
				inCritical++
				if inCritical > maxInCritical {
					maxInCritical = inCritical
				}
				p.Sleep(100)
				inCritical--
				r.reqMu.Unlock()
			}
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if maxInCritical != 1 {
		t.Fatalf("ring mutex admitted %d concurrent requests", maxInCritical)
	}
}

package sim

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// TestEventOrder runs the FuzzEventOrder model over random op strings, so
// the heap/ready-lane ordering argument is checked on every test run and not
// only under -fuzz.
func TestEventOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		ops := make([]byte, 16+rng.Intn(512))
		rng.Read(ops)
		checkEventOrder(t, ops)
	}
}

// FuzzEventOrder drives an Env with a byte-coded mix of zero and positive
// delays, cancellations of pending heap and ready-lane events (bursts large
// enough to compact), RunUntil deadlines, a Stop in mid-instant followed by
// a resume, and an idle hook that schedules zero-delay work. Events fired by
// the engine also schedule and cancel, so every kind of op happens both
// between runs and inside an instant. The firing order must equal the
// reference sort by (time, schedule order), and Fired, Pending and NextAt
// must agree with the model after every op.
func FuzzEventOrder(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 3, 0, 4, 2})
	f.Add([]byte{6, 6, 2, 4, 1, 0, 0})
	f.Add([]byte{5, 3, 1, 0, 0, 4, 5, 2, 1, 2, 3, 7})
	f.Add([]byte{})
	f.Fuzz(checkEventOrder)
}

// orderEvent is the model's view of one scheduled callback.
type orderEvent struct {
	at    time.Duration
	id    int // schedule order, the reference for the engine's seq
	timer Timer
	state int // orderPending, orderFired or orderCancelled
}

const (
	orderPending = iota
	orderFired
	orderCancelled
)

// orderMaxEvents bounds one input's work: past it, schedule is a no-op.
const orderMaxEvents = 4096

type orderModel struct {
	t      *testing.T
	env    *Env
	ops    []byte
	pos    int
	evs    []*orderEvent
	fired  []int
	live   int
	stopAt int // len(fired) at which a callback calls Stop; 0 = none
}

// next returns the next op byte, or 0 once the input is used up.
func (m *orderModel) next() byte {
	if m.pos >= len(m.ops) {
		return 0
	}
	b := m.ops[m.pos]
	m.pos++
	return b
}

func (m *orderModel) schedule(d time.Duration) {
	if len(m.evs) >= orderMaxEvents {
		return
	}
	ev := &orderEvent{at: m.env.Now() + d, id: len(m.evs)}
	m.evs = append(m.evs, ev)
	m.live++
	ev.timer = m.env.Schedule(d, func() { m.fire(ev) })
}

// cancel cancels the first pending event at or after index b (wrapping).
// Cancelling a fired or cancelled event must report false.
func (m *orderModel) cancel(b byte) {
	if len(m.evs) == 0 {
		return
	}
	start := int(b) * len(m.evs) / 256
	for k := 0; k < len(m.evs); k++ {
		ev := m.evs[(start+k)%len(m.evs)]
		if ev.state != orderPending {
			if k == 0 && ev.timer.Cancel() {
				m.t.Fatalf("Cancel of settled event %d reported true", ev.id)
			}
			continue
		}
		if !ev.timer.Cancel() {
			m.t.Fatalf("Cancel of pending event %d reported false", ev.id)
		}
		ev.state = orderCancelled
		m.live--
		return
	}
}

func (m *orderModel) fire(ev *orderEvent) {
	if ev.state != orderPending {
		m.t.Fatalf("event %d fired in state %d", ev.id, ev.state)
	}
	if now := m.env.Now(); now != ev.at {
		m.t.Fatalf("event %d fired at %v, scheduled for %v", ev.id, now, ev.at)
	}
	ev.state = orderFired
	m.live--
	m.fired = append(m.fired, ev.id)
	if m.stopAt > 0 && len(m.fired) == m.stopAt {
		m.env.Stop()
		m.stopAt = 0
	}
	switch b := m.next(); b % 4 {
	case 1:
		m.schedule(0)
	case 2:
		m.schedule(time.Duration(b%5) * time.Microsecond)
		m.schedule(0)
	case 3:
		m.cancel(m.next())
	}
}

// check compares the engine's counters with the model between ops.
func (m *orderModel) check(op int) {
	if got := m.env.Fired(); got != uint64(len(m.fired)) {
		m.t.Fatalf("op %d: Fired = %d, model %d", op, got, len(m.fired))
	}
	if got := m.env.Pending(); got != m.live {
		m.t.Fatalf("op %d: Pending = %d, model %d", op, got, m.live)
	}
	at, ok := m.env.NextAt()
	if m.live == 0 {
		return // tombstones may still give a bound
	}
	min := time.Duration(1<<62 - 1)
	for _, ev := range m.evs {
		if ev.state == orderPending && ev.at < min {
			min = ev.at
		}
	}
	if !ok || time.Duration(at) < m.env.Now() || time.Duration(at) > min {
		m.t.Fatalf("op %d: NextAt = %v,%v, want a bound in [%v, %v]", op, time.Duration(at), ok, m.env.Now(), min)
	}
}

func checkEventOrder(t *testing.T, ops []byte) {
	env := NewEnv(1)
	m := &orderModel{t: t, env: env, ops: ops}
	for op := 0; m.pos < len(ops); op++ {
		switch b := m.next(); b % 7 {
		case 0:
			m.schedule(0)
		case 1:
			m.schedule(time.Duration(b%16+1) * time.Microsecond)
		case 2:
			m.cancel(m.next())
		case 3:
			if err := env.RunUntil(env.Now() + time.Duration(b%8)*time.Microsecond); err != nil {
				t.Fatal(err)
			}
		case 4:
			// Stop in mid-instant: a callback a few fires from now stops
			// the run, leaving the rest of its instant queued.
			m.stopAt = len(m.fired) + int(b%6) + 1
			if err := env.Run(); err != nil {
				t.Fatal(err)
			}
			m.stopAt = 0
		case 5:
			budget := int(b%4) + 1
			env.SetIdleHook(func() {
				if budget > 0 {
					budget--
					m.schedule(0)
					m.schedule(0)
				}
			})
		case 6:
			// A cancel burst past minCompact, over both structures.
			first := len(m.evs)
			for i := 0; i < 2*minCompact; i++ {
				m.schedule(time.Duration(i%3) * time.Microsecond)
			}
			for i := first; i < len(m.evs); i++ {
				if i%8 != 0 && m.evs[i].state == orderPending {
					if !m.evs[i].timer.Cancel() {
						t.Fatalf("Cancel of pending event %d reported false", i)
					}
					m.evs[i].state = orderCancelled
					m.live--
				}
			}
		}
		m.check(op)
	}
	// Drain, then compare the whole run against the reference order.
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	m.check(-1)
	if m.live != 0 {
		t.Fatalf("%d events still pending after Run", m.live)
	}
	want := append([]int(nil), m.fired...)
	sort.Slice(want, func(i, j int) bool {
		a, b := m.evs[want[i]], m.evs[want[j]]
		if a.at != b.at {
			return a.at < b.at
		}
		return a.id < b.id
	})
	for i := range want {
		if m.fired[i] != want[i] {
			t.Fatalf("firing order diverges at %d: fired event %d, reference %d", i, m.fired[i], want[i])
		}
	}
	for _, ev := range m.evs {
		if ev.state == orderPending {
			t.Fatalf("event %d never fired", ev.id)
		}
	}
}

// Package faults is the simulator's deterministic fault-injection registry.
//
// A Plan maps named faultpoints — fixed strings owned by the layer that can
// fail (storage, netsim, the vRead ring, the daemon) — to trigger rules.
// Each time a layer reaches a faultpoint it asks the plan whether the fault
// fires this time. All randomness is drawn from the simulation environment's
// seeded RNG, so a (seed, plan) pair replays byte-identically: the same
// faults fire at the same virtual instants on every run. That property is
// what makes chaos testing cheap — a failing seed IS the reproducer
// (FoundationDB-style deterministic simulation testing).
//
// A nil *Plan is valid and never fires, mirroring the nil-*Trace discipline:
// production paths pay one nil check per faultpoint and nothing else.
package faults

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"vread/internal/sim"
)

// Canonical faultpoint names. The constant lives here, the evaluation lives
// in the layer that owns the failure mode:
//
//   - storage.Disk evaluates DiskReadSlow per read submission;
//   - the vRead daemon and the per-host server evaluate DiskReadError and
//     DiskReadTorn per loop-mount read batch (the EIO and torn-short-read
//     surface of a failing device);
//   - netsim evaluates NetFrameDelay on every transmit, NetFrameDrop on
//     host-terminated and RDMA frames (the vRead transports, which carry
//     their own timeout/retry; guest TCP has no retransmit model, so drops
//     there would simulate a kernel bug rather than a network fault), and
//     RDMAQPTeardown per posted work request;
//   - the daemon evaluates RingDoorbellLost per doorbell, RingStall per
//     slot-fill batch, and DaemonCrash per dequeued ring request;
//   - cluster evaluates RackKill per load-generator arrival that names a
//     victim rack (fired = every host in the rack goes dark);
//   - the hdfs federation router evaluates ShardKill per routed namespace
//     RPC (fired = that shard refuses RPCs until failover elapses);
//   - netsim evaluates DomainPartition per inter-domain host/RDMA frame
//     (fired = the two fault domains stop exchanging such frames for the
//     rule's delay window; guest TCP is exempt for the NetFrameDrop reason);
//   - libvread (the guest side of the ring, also in core) evaluates the
//     hostile-guest points per submitted descriptor: RingBadSlot forges a
//     malformed descriptor (bad opcode, negative or overflowing range,
//     oversized name), RingStaleKey stamps the previous epoch's ring key,
//     and RingDoorbellStorm floods the descriptor area with junk no-reply
//     descriptors before the real one;
//   - the daemon evaluates RingSlotHeld per slot-fill batch (the guest holds
//     a slot spinlock — the daemon burns CPU spinning, distinct from
//     RingStall's passive backpressure);
//   - the vRead manager evaluates MountMigrate per MaybeMigrateMount call
//     (fired = a live mount migration: quiesce every client ring, re-mount
//     the datanode image on the target host, replay captured descriptors).
const (
	DiskReadSlow      = "disk.read.slow"
	DiskReadError     = "disk.read.error"
	DiskReadTorn      = "disk.read.torn"
	NetFrameDrop      = "net.frame.drop"
	NetFrameDelay     = "net.frame.delay"
	RDMAQPTeardown    = "rdma.qp.teardown"
	RingDoorbellLost  = "ring.doorbell.lost"
	RingStall         = "ring.stall"
	RingBadSlot       = "ring.badslot"
	RingDoorbellStorm = "ring.doorbellstorm"
	RingSlotHeld      = "ring.slotheld"
	RingStaleKey      = "ring.stalekey"
	DaemonCrash       = "daemon.crash"
	RackKill          = "rack.kill"
	ShardKill         = "shard.kill"
	DomainPartition   = "domain.partition"
	MountMigrate      = "mount.migrate"
)

// Points lists every canonical faultpoint name, sorted: the list feeds error
// messages and reports, so its order is part of the observable output and
// must not depend on registration order.
func Points() []string {
	return []string{
		DaemonCrash,
		DiskReadError,
		DiskReadSlow,
		DiskReadTorn,
		DomainPartition,
		MountMigrate,
		NetFrameDelay,
		NetFrameDrop,
		RackKill,
		RDMAQPTeardown,
		RingBadSlot,
		RingDoorbellLost,
		RingDoorbellStorm,
		RingSlotHeld,
		RingStaleKey,
		RingStall,
		ShardKill,
	}
}

func knownPoint(name string) bool {
	for _, p := range Points() {
		if p == name {
			return true
		}
	}
	return false
}

// Rule is one faultpoint's trigger: the fault fires when the point has been
// evaluated more than AfterN times, has fired fewer than MaxFires times
// (0 = unlimited), and a draw from the sim RNG lands under Prob. Prob >= 1
// fires deterministically, which combined with AfterN and MaxFires pins a
// fault to an exact operation ("break the QP on the 7th work request").
type Rule struct {
	// Point is the faultpoint name the rule arms.
	Point string
	// Prob is the per-evaluation firing probability. Values >= 1 always
	// fire; values <= 0 never fire (useful for overhead measurement: the
	// evaluation machinery runs, the fault does not).
	Prob float64
	// AfterN skips the first N evaluations of the point.
	AfterN int64
	// MaxFires caps the number of firings (0 = unlimited, 1 = one-shot).
	MaxFires int64
	// Delay is the extra latency injected by delay-class faults
	// (disk.read.slow, net.frame.delay, ring.stall).
	Delay time.Duration
}

// Spec is an ordered set of rules — the serializable description of a fault
// plan, independent of any simulation environment.
type Spec []Rule

// Plan binds a Spec to a simulation environment's RNG.
func (s Spec) Plan(env *sim.Env) *Plan {
	p := NewPlan(env)
	for _, r := range s {
		p.Set(r)
	}
	return p
}

// String renders the spec in ParseSpec's format.
func (s Spec) String() string {
	var b strings.Builder
	for i, r := range s {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(r.Point)
		// p is always written: ParseSpec defaults an absent p to 1, so
		// dropping p=0 would re-arm a disarmed rule.
		opts := []string{"p=" + strconv.FormatFloat(r.Prob, 'g', -1, 64)}
		if r.AfterN != 0 {
			opts = append(opts, "after="+strconv.FormatInt(r.AfterN, 10))
		}
		if r.MaxFires != 0 {
			opts = append(opts, "max="+strconv.FormatInt(r.MaxFires, 10))
		}
		if r.Delay != 0 {
			opts = append(opts, "delay="+r.Delay.String())
		}
		b.WriteByte(':')
		b.WriteString(strings.Join(opts, ","))
	}
	return b.String()
}

// ParseSpec parses the CLI syntax
//
//	point[:opt,...][;point[:opt,...]]...
//
// where each opt is p=<prob>, after=<n>, max=<n>, or delay=<duration>, and
// every value must be >= 0 (p may not be NaN). A rule with no p= option
// fires deterministically (p=1). Example:
//
//	disk.read.slow:p=0.05,delay=2ms;rdma.qp.teardown:after=6,max=1
func ParseSpec(s string) (Spec, error) {
	var spec Spec
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, opts, _ := strings.Cut(part, ":")
		name = strings.TrimSpace(name)
		if name == "" {
			return nil, fmt.Errorf("faults: empty faultpoint in %q", part)
		}
		if !knownPoint(name) {
			return nil, fmt.Errorf("faults: unknown faultpoint %q (known: %s)",
				name, strings.Join(Points(), ", "))
		}
		r := Rule{Point: name, Prob: 1}
		if opts != "" {
			for _, opt := range strings.Split(opts, ",") {
				key, val, ok := strings.Cut(strings.TrimSpace(opt), "=")
				if !ok {
					return nil, fmt.Errorf("faults: bad option %q in rule %q", opt, part)
				}
				var err error
				switch key {
				case "p", "prob":
					r.Prob, err = strconv.ParseFloat(val, 64)
				case "after":
					r.AfterN, err = strconv.ParseInt(val, 10, 64)
				case "max":
					r.MaxFires, err = strconv.ParseInt(val, 10, 64)
				case "delay":
					r.Delay, err = time.ParseDuration(val)
				default:
					return nil, fmt.Errorf("faults: unknown option %q in rule %q", key, part)
				}
				// !(p >= 0) also catches NaN; only the option just parsed can
				// have broken the check.
				if err == nil && (!(r.Prob >= 0) || r.AfterN < 0 || r.MaxFires < 0 || r.Delay < 0) {
					err = errors.New("must be >= 0")
				}
				if err != nil {
					return nil, fmt.Errorf("faults: bad %s value in rule %q: %v", key, part, err)
				}
			}
		}
		spec = append(spec, r)
	}
	return spec, nil
}

// PointCount is one faultpoint's evaluation/firing tally.
type PointCount struct {
	Point string
	Evals int64
	Fires int64
}

// Plan is a live fault-injection registry bound to one simulation
// environment. It is not safe for concurrent use — like everything else in
// the simulator, exactly one goroutine drives it at a time.
type Plan struct {
	env    *sim.Env
	points map[string]*pointState
	order  []string // first-armed order, for deterministic reporting
}

type pointState struct {
	rule  Rule
	evals int64
	fires int64
}

// NewPlan returns an empty plan drawing randomness from env's seeded RNG.
func NewPlan(env *sim.Env) *Plan {
	return &Plan{env: env, points: make(map[string]*pointState)}
}

// Set arms (or re-arms) the rule for its faultpoint, keeping accumulated
// tallies when the point was already armed.
func (p *Plan) Set(r Rule) {
	if st, ok := p.points[r.Point]; ok {
		st.rule = r
		return
	}
	p.points[r.Point] = &pointState{rule: r}
	p.order = append(p.order, r.Point)
}

// Should evaluates the faultpoint and reports whether the fault fires this
// time. Unarmed points (and a nil plan) never fire and draw no randomness.
func (p *Plan) Should(point string) bool {
	if p == nil {
		return false
	}
	st, ok := p.points[point]
	if !ok {
		return false
	}
	st.evals++
	if st.evals <= st.rule.AfterN {
		return false
	}
	if st.rule.MaxFires > 0 && st.fires >= st.rule.MaxFires {
		return false
	}
	if st.rule.Prob <= 0 {
		return false
	}
	if st.rule.Prob < 1 && p.env.Rand().Float64() >= st.rule.Prob {
		return false
	}
	st.fires++
	return true
}

// ShouldDelay is Should for delay-class faults: when the fault fires it also
// returns the rule's configured extra latency.
func (p *Plan) ShouldDelay(point string) (time.Duration, bool) {
	if !p.Should(point) {
		return 0, false
	}
	return p.points[point].rule.Delay, true
}

// Fired returns how many times the point has fired.
func (p *Plan) Fired(point string) int64 {
	if p == nil {
		return 0
	}
	st, ok := p.points[point]
	if !ok {
		return 0
	}
	return st.fires
}

// Counts returns every armed point's tallies in first-armed order.
func (p *Plan) Counts() []PointCount {
	if p == nil {
		return nil
	}
	out := make([]PointCount, 0, len(p.order))
	for _, name := range p.order {
		st := p.points[name]
		out = append(out, PointCount{Point: name, Evals: st.evals, Fires: st.fires})
	}
	return out
}

// TotalFired sums firings across all points.
func (p *Plan) TotalFired() int64 {
	var n int64
	for _, c := range p.Counts() {
		n += c.Fires
	}
	return n
}

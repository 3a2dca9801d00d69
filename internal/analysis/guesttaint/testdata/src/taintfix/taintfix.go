// Package taintfix exercises the guest-taint boundary: values popped off an
// annotated ring queue, or read from an annotated capture area, are hostile
// until a declared sanitizer accepts them,
// and must not reach index, copy-length, map-key, or schedule-delay sinks,
// nor be stored into host state for a later event.
package taintfix

import (
	"time"

	"vread/internal/sim"
)

type req struct {
	dn  string
	off int64
	n   int64
}

type dev struct {
	env *sim.Env
	// reqs is the guest-written descriptor ring.
	//
	//lint:source guesttaint(descriptor area is guest-writable)
	reqs *sim.Queue[req]
	// trusted is host-internal: pops off it draw no findings.
	trusted *sim.Queue[req]

	mounts map[string]int
	slots  []byte
	// cur is host state: the descriptor in flight between event handlers.
	cur req
	// held is a guest-side capture area: stores into it stay hostile.
	//
	//lint:source guesttaint(captured descriptors are re-sanitized on replay)
	held []req
}

// sanitize launders a descriptor by value.
//
//lint:sanitizer guesttaint(bounds-checks the byte range)
func (d *dev) sanitize(r req) (req, bool) {
	if r.off < 0 || r.n < 0 || r.off+r.n < 0 {
		return r, false
	}
	return r, true
}

// valid is the bool-guard sanitizer idiom: the argument itself is laundered.
//
//lint:sanitizer guesttaint(rejects negative ranges)
func (d *dev) valid(r req) bool {
	return r.off >= 0 && r.n >= 0
}

// lookup indexes the mount map with its argument; callers feeding it guest
// data get a call-chain witness.
func (d *dev) lookup(dn string) int {
	return d.mounts[dn]
}

// raw uses a popped descriptor with no sanitizer: every sink fires.
func (d *dev) raw(p *sim.Proc) {
	r, ok := d.reqs.Get(p)
	if !ok {
		return
	}
	_ = d.mounts[r.dn]                            // want `map key d\.mounts\[r\.dn\] without a declared sanitizer`
	_ = d.slots[r.off]                            // want `slice index d\.slots\[r\.off\] without a declared sanitizer`
	_ = d.slots[:r.n]                             // want `slice bound`
	delete(d.mounts, r.dn)                        // want `map key delete\(d\.mounts, r\.dn\)`
	buf := make([]byte, r.n)                      // want `make size`
	copy(buf, r.dn)                               // want `copy length`
	d.env.Schedule(time.Duration(r.n), func() {}) // want `schedule delay`
	p.Sleep(time.Duration(r.off))                 // want `schedule delay`
}

// chained reaches the map through a helper: the report cites the chain.
func (d *dev) chained(p *sim.Proc) {
	r, ok := d.reqs.TryGet()
	if !ok {
		return
	}
	_ = p
	_ = d.lookup(r.dn) // want `map key d\.mounts\[dn\] .*call chain: \(taintfix\.dev\)\.chained → \(taintfix\.dev\)\.lookup`
}

// sanitized launders the descriptor at the pop: no findings.
func (d *dev) sanitized(p *sim.Proc) {
	r, ok := d.reqs.Get(p)
	if !ok {
		return
	}
	r, ok = d.sanitize(r)
	if !ok {
		return
	}
	_ = d.mounts[r.dn]
	_ = d.slots[r.off]
	d.env.Schedule(time.Duration(r.n), func() {})
}

// guarded uses the bool-guard idiom: passing r to the sanitizer launders it.
func (d *dev) guarded(p *sim.Proc) {
	r, ok := d.reqs.Get(p)
	if !ok {
		return
	}
	if !d.valid(r) {
		return
	}
	_ = d.slots[r.off]
}

// hostSide pops an unannotated queue: not guest data, no findings.
func (d *dev) hostSide(p *sim.Proc) {
	r, ok := d.trusted.Get(p)
	if !ok {
		return
	}
	_ = d.mounts[r.dn]
	_ = d.slots[r.off]
}

// allowed documents a deliberate exception through the suppression comment.
func (d *dev) allowed(p *sim.Proc) {
	r, ok := d.reqs.Get(p)
	if !ok {
		return
	}
	//lint:allow guesttaint(fixture proves the escape hatch works)
	_ = d.mounts[r.dn]
}

// keep stores its argument into host state; callers feeding it guest data
// get a call-chain witness.
func (d *dev) keep(r req) {
	d.cur = r
}

// stored keeps popped descriptors for a later event handler: a store into
// host state is a sink, one into a guest-side field or into the popped
// value's own storage is not.
func (d *dev) stored() {
	r, ok := d.reqs.TryGet()
	if !ok {
		return
	}
	d.cur.n = r.n              // want `field store d\.cur\.n`
	d.cur = r                  // want `field store d\.cur without a declared sanitizer`
	d.keep(r)                  // want `field store d\.cur .*call chain: \(taintfix\.dev\)\.stored → \(taintfix\.dev\)\.keep`
	d.held = append(d.held, r) // a guest-side capture
	rp := &r
	rp.n = r.off // the popped value's own storage
	var local req
	local.off = r.off // a local value, gone with the event
	_ = local
}

// storedClean sanitizes before keeping the descriptor: no findings.
func (d *dev) storedClean() {
	r, ok := d.reqs.TryGet()
	if !ok {
		return
	}
	if r, ok = d.sanitize(r); !ok {
		return
	}
	d.cur = r
	d.keep(r)
}

// replayed serves a captured descriptor straight from the guest-side
// capture area: reading an annotated field is a source, like a pop.
func (d *dev) replayed() {
	if len(d.held) == 0 {
		return
	}
	r := d.held[0]
	d.held = d.held[1:]
	d.cur = r // want `field store d\.cur without a declared sanitizer`
}

// replayedClean sanitizes the captured descriptor first: no findings.
func (d *dev) replayedClean() {
	if len(d.held) == 0 {
		return
	}
	r, ok := d.sanitize(d.held[0])
	d.held = d.held[1:]
	if ok {
		d.cur = r
	}
}

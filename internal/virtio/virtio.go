// Package virtio models KVM's para-virtual devices: virtio-net backed by a
// per-VM vhost-net kernel thread, and virtio-blk backed by a per-VM QEMU
// iothread (vhost-blk stays disabled, as in the paper's setup).
//
// Every boundary crossing the paper's Figure 1 counts is explicit here:
// guest→host kicks (VM exits), per-frame vhost processing, the data copies
// through the virtqueues, the direct inter-VM copy between co-located VMs,
// and interrupt injection back into the guest. Each copy charges cycles on
// the thread that performs it, so the stacked CPU bars of Figures 6–8 and
// the scheduling interference of Figure 3 both emerge from the same model.
package virtio

import (
	"fmt"

	"vread/internal/cpusched"
	"vread/internal/metrics"
	"vread/internal/netsim"
	"vread/internal/sim"
	"vread/internal/storage"
	"vread/internal/trace"
)

// Device-model costs, calibrated for the paper's era of hardware.
const (
	// copyCyclesPerKB is the cost of moving one KiB across a protection
	// boundary (0.25 cycles/byte).
	copyCyclesPerKB = 256
	// vhostFrameCycles is vhost-net per-frame processing (descriptor
	// handling, skb setup).
	vhostFrameCycles = 3000
	// kickCycles is the guest-side VM-exit cost of notifying the host.
	kickCycles = 5000
	// irqInjectCycles is the host-side cost of injecting a virtual
	// interrupt.
	irqInjectCycles = 3000
	// guestIRQCycles is the guest-side interrupt handling cost.
	guestIRQCycles = 2500
	// netRingFrames is the virtio-net ring depth.
	netRingFrames = 256
	// segmentBytes is the TSO/GRO segment size riding one ring slot: the
	// largest frame payload Transmit accepts.
	segmentBytes = 64 << 10
	// blkRingReqs is the virtio-blk ring depth.
	blkRingReqs = 128
	// blkReqBytes is the largest single block request.
	blkReqBytes = 512 << 10
	// blkReqCycles is host-side per-request processing for virtio-blk.
	blkReqCycles = 8000
	// sriovTxCycles is the guest's per-frame cost of driving the VF
	// directly.
	sriovTxCycles = 2500
)

// Config selects the device model's alternatives to vhost-net. The zero
// value is the paper's setup.
type Config struct {
	// SharedMemNet models the §2.2 inter-VM shared-memory alternative
	// (XenSocket/ZIVM-style): co-located transfers skip exactly the one
	// inter-VM copy, but the datanode VM and both I/O threads stay on the
	// data path. Default false.
	SharedMemNet bool
	// SRIOV models §6's modern-hardware interplay: the guest owns a NIC
	// virtual function, so frames DMA straight to the wire with no vhost
	// thread and no host-side copies. Co-located traffic hairpins through
	// the NIC's internal switch. The datanode VM stays on the data path —
	// which is the paper's point about SR-IOV being orthogonal to vRead.
	SRIOV bool
}

// copyCycles returns the cycle cost of copying n bytes.
func copyCycles(n int64) int64 {
	return n * copyCyclesPerKB / 1024
}

// ---------------------------------------------------------------------------
// virtio-net + vhost-net.

// NetDev is one VM's para-virtual NIC with its vhost-net thread.
type NetDev struct {
	env    *sim.Env
	cfg    Config
	vmName string
	host   string
	vcpu   *cpusched.Thread
	vhost  *cpusched.Thread
	nic    *netsim.NIC
	fabric *netsim.Fabric
	// tx is the virtio-net descriptor ring: the guest wrote every popped
	// frame, so serve must run it through sanitizeFrame before using
	// its length or destination on the host side.
	//
	//lint:source guesttaint(tx descriptors live in guest memory)
	tx      *sim.Queue[netsim.Frame]
	deliver func(fr netsim.Frame) // guest kernel rx hook

	// vhostLoop runs vhost-net as event handlers from Start on; fr is the
	// frame in flight and peer its co-located destination.
	vhostLoop steps[*NetDev]
	fr        netsim.Frame
	peer      *NetDev

	sriovInflight int
	sriovSig      sim.Signal
	sriovDone     func()             // prebound descriptor-retire hook (no per-frame closure)
	rxFn          func(netsim.Frame) // prebound injectRx method value (no per-frame binding)
}

// NewNetDev creates the device. vcpu is the VM's vCPU thread (guest IRQ
// work), vhost the VM's vhost-net thread, nic the host port.
func NewNetDev(env *sim.Env, cfg Config, vmName, host string,
	vcpu, vhost *cpusched.Thread, nic *netsim.NIC, fabric *netsim.Fabric) *NetDev {
	d := &NetDev{
		env: env, cfg: cfg, vmName: vmName, host: host,
		vcpu: vcpu, vhost: vhost, nic: nic, fabric: fabric,
		tx: sim.NewQueue[netsim.Frame](env, netRingFrames),
	}
	d.sriovDone = func() {
		d.sriovInflight--
		d.sriovSig.Broadcast()
	}
	d.rxFn = d.injectRx
	fabric.RegisterVM(vmName, host, d)
	return d
}

// SetDeliver installs the guest kernel's frame handler. It runs in event
// context after the guest IRQ cost; the handler posts further guest work.
func (d *NetDev) SetDeliver(fn func(fr netsim.Frame)) { d.deliver = fn }

// Start launches the vhost-net service loop.
func (d *NetDev) Start() { d.vhostLoop.start(d.env, d, (*NetDev).serve) }

// Transmit hands a frame to the device: the caller pays the kick (VM exit)
// on the vCPU and blocks while the tx ring is full. It is not //lint:hotpath:
// charging the kick posts scheduler work items, so the no-alloc contract
// cannot hold through its callees (the per-frame cost lives in the cycle
// model, not in allocator pressure).
func (d *NetDev) Transmit(p *sim.Proc, fr netsim.Frame) {
	if fr.Payload.Len() > segmentBytes {
		panic(fmt.Sprintf("virtio: frame %d exceeds segment size %d", fr.Payload.Len(), segmentBytes))
	}
	if d.cfg.SRIOV {
		d.transmitSRIOV(p, fr)
		return
	}
	d.vcpu.RunT(p, kickCycles, metrics.TagOthers, fr.Trace)
	d.tx.Put(p, fr)
}

// transmitSRIOV drives the VF directly: no VM exit, no vhost, no host-side
// copies — the device DMAs from guest memory through the NIC (hairpinning
// locally for co-located peers) into the peer guest's buffers. Descriptors
// post asynchronously, bounded by the VF's ring depth.
func (d *NetDev) transmitSRIOV(p *sim.Proc, fr netsim.Frame) {
	d.vcpu.RunT(p, sriovTxCycles, metrics.TagOthers, fr.Trace)
	dstHost, ep, ok := d.fabric.Locate(fr.DstVM)
	if !ok {
		panic(fmt.Sprintf("virtio: unknown destination VM %q", fr.DstVM))
	}
	peer := ep.(*NetDev)
	fr.DstHost = dstHost
	for d.sriovInflight >= netRingFrames {
		d.sriovSig.Wait(p)
	}
	d.sriovInflight++
	d.nic.SendDMA(fr, d.sriovDone, peer.rxFn)
}

// sanitizeFrame is the host-side check of one guest-written tx descriptor:
// the payload length must fit a TSO segment (a corrupt length would inflate
// the copy charge) and the destination VM must exist in the fabric. Transmit
// enforces the same bounds guest-side, but vhost must not trust that — the
// descriptor is re-read from shared memory after the guest could have
// scribbled on it.
//
//lint:sanitizer guesttaint(rejects oversized payloads and unknown destinations before any host-side use)
func (d *NetDev) sanitizeFrame(fr netsim.Frame) (netsim.Frame, bool) {
	if fr.Payload.Len() < 0 || fr.Payload.Len() > segmentBytes {
		return fr, false
	}
	if _, ok := d.fabric.HostOf(fr.DstVM); !ok {
		return fr, false
	}
	return fr, true
}

// serve heads the vhost-net loop: per-frame processing, the guest→host copy,
// then the direct inter-VM copy (co-located destination) or the NIC.
//
//lint:hotpath
func (d *NetDev) serve() {
	for {
		fr, ok := d.tx.TryGet()
		if !ok {
			if !d.tx.Closed() {
				d.tx.Notify(d.vhostLoop.serve)
			}
			return
		}
		fr, ok = d.sanitizeFrame(fr)
		if !ok {
			// A malformed descriptor is dropped like a bad skb; the guest
			// sees it as a lost frame.
			continue
		}
		d.fr = fr
		d.vhostLoop.charge(d.vhost, vhostFrameCycles, metrics.TagVhostNet, fr.Trace, (*NetDev).copyIn)
		return
	}
}

//lint:hotpath
func (d *NetDev) copyIn() {
	d.vhostLoop.charge(d.vhost, copyCycles(d.fr.Payload.Len()), metrics.TagCopyVirtio, d.fr.Trace, (*NetDev).route)
}

// route runs after the charges, as the destination may have migrated
// meanwhile; an unknown one reads as remote and SendToVM panics naming it.
func (d *NetDev) route() {
	dstHost, ep, _ := d.fabric.Locate(d.fr.DstVM)
	if dstHost != d.host {
		// Remote: pace into the physical NIC; wait for transmit-complete so
		// the vhost thread applies backpressure like a bounded device queue.
		d.nic.SendToVM(d.fr, d.vhostLoop.then((*NetDev).serve))
		return
	}
	// Co-located: the sender's vhost writes straight into the peer VM's
	// receive ring — the paper's "1 inter-VM data copy". Shared-memory
	// networking (§2.2) elides exactly this copy.
	d.peer = ep.(*NetDev)
	c := copyCycles(d.fr.Payload.Len())
	if d.cfg.SharedMemNet {
		c = 0
	}
	d.vhostLoop.charge(d.vhost, c, metrics.TagCopyVirtio, d.fr.Trace, (*NetDev).inject)
}

//lint:hotpath
func (d *NetDev) inject() {
	d.vhostLoop.charge(d.vhost, irqInjectCycles, metrics.TagVhostNet, d.fr.Trace, (*NetDev).handOff)
}

func (d *NetDev) handOff() {
	d.peer.injectRx(d.fr)
	d.serve()
}

// DeliverFromWire implements netsim.Endpoint: a frame arriving from the
// physical NIC is copied into the guest ring by this VM's vhost thread, then
// injected.
func (d *NetDev) DeliverFromWire(fr netsim.Frame) {
	n := fr.Payload.Len()
	d.vhost.PostT(vhostFrameCycles, metrics.TagVhostNet, fr.Trace, nil)
	d.vhost.PostT(copyCycles(n), metrics.TagCopyVirtio, fr.Trace, nil)
	d.vhost.PostT(irqInjectCycles, metrics.TagVhostNet, fr.Trace, func() {
		d.injectRx(fr)
	})
}

// injectRx charges the guest interrupt on the vCPU, then hands the frame to
// the guest kernel.
func (d *NetDev) injectRx(fr netsim.Frame) {
	d.vcpu.PostT(guestIRQCycles, metrics.TagOthers, fr.Trace, func() {
		if d.deliver == nil {
			panic(fmt.Sprintf("virtio: no deliver hook on %s", d.vmName))
		}
		d.deliver(fr)
	})
}

// Stop closes the tx ring, terminating the vhost loop once drained.
func (d *NetDev) Stop() { d.tx.Close() }

// ---------------------------------------------------------------------------
// virtio-blk + QEMU iothread.

// BlkDev is one VM's para-virtual disk, served by a QEMU iothread with
// cache=none (the paper disables the hypervisor disk cache for the virtio
// path; the host page cache only serves the vRead daemon's loop mounts).
type BlkDev struct {
	env      *sim.Env
	vmName   string
	vcpu     *cpusched.Thread
	iothread *cpusched.Thread
	disk     *storage.Disk
	// reqs is the virtio-blk descriptor ring: popped requests carry
	// guest-written sizes that serve must bounds-check via sanitizeBlkReq
	// before charging copies or issuing disk I/O.
	//
	//lint:source guesttaint(blk descriptors live in guest memory)
	reqs *sim.Queue[blkReq]

	// ioLoop runs the iothread as event handlers from Start on; req is the
	// request in flight.
	ioLoop steps[*BlkDev]
	req    blkReq
}

type blkReq struct {
	bytes  int64
	write  bool
	tr     *trace.Trace
	onDone func()
}

// NewBlkDev creates the device on the given physical disk.
func NewBlkDev(env *sim.Env, vmName string,
	vcpu, iothread *cpusched.Thread, disk *storage.Disk) *BlkDev {
	return &BlkDev{
		env: env, vmName: vmName,
		vcpu: vcpu, iothread: iothread, disk: disk,
		reqs: sim.NewQueue[blkReq](env, blkRingReqs),
	}
}

// Start launches the iothread service loop.
func (b *BlkDev) Start() { b.ioLoop.start(b.env, b, (*BlkDev).serve) }

// ReadT performs a guest block read of n bytes attributed to a request
// trace, blocking p until the data is in guest memory. Large reads split
// into blkReqBytes requests that pipeline through the ring.
func (b *BlkDev) ReadT(p *sim.Proc, tr *trace.Trace, n int64) {
	b.transfer(p, tr, n, false)
}

// MaxRequestBytes returns the largest single block request.
func (b *BlkDev) MaxRequestBytes() int64 { return blkReqBytes }

// TryReadAsyncT submits one read request attributed to a request trace
// without blocking (the guest kernel's readahead path). n must not exceed
// MaxRequestBytes. It reports false when the ring is full; the caller simply
// skips the readahead. onDone runs in guest (vCPU) context when the data is
// in guest memory.
func (b *BlkDev) TryReadAsyncT(tr *trace.Trace, n int64, onDone func()) bool {
	if n <= 0 || n > blkReqBytes {
		return false
	}
	if !b.reqs.TryPut(blkReq{bytes: n, tr: tr, onDone: onDone}) {
		return false
	}
	b.vcpu.PostT(kickCycles, metrics.TagOthers, tr, nil)
	return true
}

// WriteAsync submits a write without waiting for completion (guest
// writeback flusher behavior). It still blocks while the ring is full,
// which is the dirty-page throttling bound.
func (b *BlkDev) WriteAsync(p *sim.Proc, n int64) {
	for n > 0 {
		req := n
		if req > blkReqBytes {
			req = blkReqBytes
		}
		n -= req
		b.vcpu.Run(p, kickCycles, metrics.TagOthers)
		b.reqs.Put(p, blkReq{bytes: req, write: true, onDone: noop})
	}
}

// transfer moves n bytes through the ring in blkReqBytes requests and blocks
// p until the device has completed every one of them.
func (b *BlkDev) transfer(p *sim.Proc, tr *trace.Trace, n int64, write bool) {
	if n <= 0 {
		return
	}
	remaining := 0
	var done sim.Signal
	for n > 0 {
		req := n
		if req > blkReqBytes {
			req = blkReqBytes
		}
		n -= req
		remaining++
		b.vcpu.RunT(p, kickCycles, metrics.TagOthers, tr)
		b.reqs.Put(p, blkReq{bytes: req, write: write, tr: tr, onDone: func() {
			remaining--
			done.Broadcast()
		}})
	}
	for remaining > 0 {
		done.Wait(p)
	}
}

// sanitizeBlkReq is the host-side check of one guest-written block request:
// the size must be positive and fit one ring request. The guest submit
// paths clamp to the same bound, but the iothread re-reads the descriptor
// from the shared ring and must not trust the guest's copy of the check.
//
//lint:sanitizer guesttaint(rejects non-positive and oversized request sizes before copy charging and disk I/O)
func (b *BlkDev) sanitizeBlkReq(req blkReq) (blkReq, bool) {
	if req.bytes <= 0 || req.bytes > blkReqBytes {
		return req, false
	}
	return req, true
}

// serve heads the iothread loop: request processing, the device transfer and
// the virtqueue copy, and the completion interrupt.
//
//lint:hotpath
func (b *BlkDev) serve() {
	for {
		req, ok := b.reqs.TryGet()
		if !ok {
			if !b.reqs.Closed() {
				b.reqs.Notify(b.ioLoop.serve)
			}
			return
		}
		req, ok = b.sanitizeBlkReq(req)
		if !ok {
			// A malformed descriptor completes immediately with no transfer,
			// like a device rejecting an out-of-range request.
			b.vcpu.PostT(guestIRQCycles, metrics.TagOthers, req.tr, req.onDone)
			continue
		}
		b.req = req
		b.ioLoop.charge(b.iothread, blkReqCycles, metrics.TagDiskRead, req.tr, (*BlkDev).doIO)
		return
	}
}

func (b *BlkDev) doIO() {
	if b.req.write {
		b.ioLoop.charge(b.iothread, copyCycles(b.req.bytes), metrics.TagCopyVirtio, b.req.tr, (*BlkDev).finishIO)
	} else {
		b.disk.ReadAsyncT(b.req.tr, b.req.bytes, b.ioLoop.then((*BlkDev).finishIO))
	}
}

func (b *BlkDev) finishIO() {
	if b.req.write {
		b.disk.WriteAsyncT(b.req.tr, b.req.bytes, b.ioLoop.then((*BlkDev).irq))
	} else {
		b.ioLoop.charge(b.iothread, copyCycles(b.req.bytes), metrics.TagCopyVirtio, b.req.tr, (*BlkDev).irq)
	}
}

func (b *BlkDev) irq() {
	b.ioLoop.charge(b.iothread, irqInjectCycles, metrics.TagOthers, b.req.tr, (*BlkDev).complete)
}

func (b *BlkDev) complete() {
	b.vcpu.PostT(guestIRQCycles, metrics.TagOthers, b.req.tr, b.req.onDone)
	b.serve()
}

// noop completes a write nobody waits on, still as one guest IRQ event.
func noop() {}

// steps runs a device loop on dev as event handlers firing a Proc loop's
// events: serve is the loop's head, and resume (bound once by Env.Later)
// continues with next one zero-delay event after a completion.
type steps[D any] struct {
	dev           D
	next          func(D)
	serve, resume func()
}

// start binds the loop to dev, once, and schedules its head at zero delay.
func (s *steps[D]) start(env *sim.Env, dev D, serve func(D)) {
	if s.serve != nil {
		return
	}
	s.dev, s.serve, s.resume = dev, func() { serve(dev) }, env.Later(func() { s.next(dev) })
	env.Schedule(0, s.serve)
}

// then returns the completion that continues with next.
func (s *steps[D]) then(next func(D)) func() {
	s.next = next
	return s.resume
}

// charge runs cycles on t, then continues with next as RunT did: one
// zero-delay event after the work completes, or at once when there is none.
func (s *steps[D]) charge(t *cpusched.Thread, cycles int64, tag string, tr *trace.Trace, next func(D)) {
	if cycles <= 0 {
		next(s.dev)
		return
	}
	t.PostT(cycles, tag, tr, s.then(next))
}

// Stop closes the request ring, terminating the iothread loop once drained.
func (b *BlkDev) Stop() { b.reqs.Close() }

package main

import (
	"fmt"
	"time"

	"vread/internal/cluster"
	"vread/internal/cpusched"
	"vread/internal/data"
	"vread/internal/experiments"
	"vread/internal/guest"
	"vread/internal/hdfs"
	"vread/internal/metrics"
	"vread/internal/netsim"
	"vread/internal/sim"
	"vread/internal/storage"
	"vread/internal/trace"
	"vread/internal/virtio"
)

const (
	microBatches = 100 // timed batches per microbenchmark: enough for a p90
	microWarm    = 5   // untimed batches first
	ghz2         = 2_000_000_000
)

// micro is one layer microbenchmark. run measures microBatches batches and
// returns each batch's host ns per op and the allocations per op.
type micro struct {
	name string
	run  func() (nsPerOp []float64, allocsPerOp float64, err error)
}

var micros = []micro{
	{"sim.schedule_fire", benchScheduleFire},
	{"sim.proc_sleep", benchProcSleep},
	{"cpusched.runt", benchRunT},
	{"cpusched.post", benchPost},
	{"virtio.transmit_64k", func() ([]float64, float64, error) { return benchNet("transmit") }},
	{"netsim.send_to_vm", func() ([]float64, float64, error) { return benchNet("send") }},
	{"netsim.qp_post", func() ([]float64, float64, error) { return benchNet("qp") }},
	{"guest.conn_mb", benchConn},
	{"guest.append_mb", benchAppend},
	{"storage.cache_lookup", benchCacheLookup},
	{"storage.disk_read_mb", benchDiskRead},
	{"data.equal_64k", benchEqual},
	{"core.read_local_mb", func() ([]float64, float64, error) { return benchTestbed("local") }},
	{"core.read_remote_mb", func() ([]float64, float64, error) { return benchTestbed("remote") }},
	{"hdfs.locate", func() ([]float64, float64, error) { return benchTestbed("locate") }},
	{"metrics.add_cycles", benchAddCycles},
	{"trace.request", benchTraceRequest},
}

// hostBatches times batch (which runs k ops) from the host.
func hostBatches(k int, batch func()) ([]float64, float64) {
	var ns []float64
	var start snap
	for b := 0; b < microWarm+microBatches; b++ {
		if b == microWarm {
			start = takeSnap()
		}
		t := time.Now()
		batch()
		if b >= microWarm {
			ns = append(ns, float64(time.Since(t).Nanoseconds())/float64(k))
		}
	}
	end := takeSnap()
	return ns, float64(end.allocs-start.allocs) / float64(k*microBatches)
}

// procBatches times batch (which runs k ops) from a simulated process on
// env, so a batch's host time includes every event its ops cause. It stops
// env when done.
func procBatches(env *sim.Env, k int, batch func(p *sim.Proc) error) ([]float64, float64, error) {
	var ns []float64
	var allocs float64
	var berr error
	env.Go("micro", func(p *sim.Proc) {
		defer env.Stop()
		var start snap
		for b := 0; b < microWarm+microBatches; b++ {
			if b == microWarm {
				start = takeSnap()
			}
			t := time.Now()
			if berr = batch(p); berr != nil {
				return
			}
			if b >= microWarm {
				ns = append(ns, float64(time.Since(t).Nanoseconds())/float64(k))
			}
		}
		end := takeSnap()
		allocs = float64(end.allocs-start.allocs) / float64(k*microBatches)
	})
	if err := env.RunUntil(env.Now() + 24*time.Hour); err != nil {
		return nil, 0, err
	}
	if berr == nil && len(ns) != microBatches {
		berr = fmt.Errorf("ran %d of %d batches", len(ns), microBatches)
	}
	return ns, allocs, berr
}

// waitFor parks p until *n reaches target; sig is signalled on every
// increment.
func waitFor(p *sim.Proc, sig *sim.Signal, n *int, target int) {
	for *n < target {
		sig.Wait(p)
	}
}

func benchScheduleFire() ([]float64, float64, error) {
	const k = 1024
	env := sim.NewEnv(1)
	defer env.Close()
	fn := func() {}
	var err error
	ns, allocs := hostBatches(k, func() {
		for j := 0; j < k; j++ {
			env.Schedule(time.Duration(j)*time.Nanosecond, fn)
		}
		if e := env.Run(); e != nil {
			err = e
		}
	})
	return ns, allocs, err
}

func benchProcSleep() ([]float64, float64, error) {
	const k = 1000
	env := sim.NewEnv(1)
	defer env.Close()
	env.Go("sleeper", func(p *sim.Proc) {
		for {
			p.Sleep(time.Microsecond)
		}
	})
	var err error
	ns, allocs := hostBatches(k, func() {
		if e := env.RunFor(k * time.Microsecond); e != nil {
			err = e
		}
	})
	return ns, allocs, err
}

func newThread(env *sim.Env) *cpusched.Thread {
	cpu := cpusched.New(env, metrics.NewRegistry(), 1, ghz2, cpusched.Config{})
	return cpu.NewThread("micro", "micro")
}

func benchRunT() ([]float64, float64, error) {
	const k = 200
	env := sim.NewEnv(1)
	defer env.Close()
	th := newThread(env)
	return procBatches(env, k, func(p *sim.Proc) error {
		for i := 0; i < k; i++ {
			th.RunT(p, 2000, metrics.TagOthers, nil)
		}
		return nil
	})
}

func benchPost() ([]float64, float64, error) {
	const k = 200
	env := sim.NewEnv(1)
	defer env.Close()
	th := newThread(env)
	sig := sim.NewSignal(env)
	done := 0
	onDone := func() { done++; sig.Signal() }
	return procBatches(env, k, func(p *sim.Proc) error {
		target := done + k
		for i := 0; i < k; i++ {
			th.PostT(2000, metrics.TagOthers, nil, onDone)
		}
		waitFor(p, sig, &done, target)
		return nil
	})
}

// sink is a fabric endpoint that only counts deliveries.
type sink struct {
	n   int
	sig *sim.Signal
}

func (s *sink) DeliverFromWire(netsim.Frame) { s.n++; s.sig.Signal() }

// benchNet measures one of three paths on two bare hosts: a 64 KiB virtio
// transmit between co-located VMs ("transmit"), a 64 KiB NIC send to a VM
// on the other host ("send"), and a 1 MiB RDMA QP post ("qp").
func benchNet(path string) ([]float64, float64, error) {
	const k = 20
	env := sim.NewEnv(1)
	defer env.Close()
	reg := metrics.NewRegistry()
	fab := netsim.NewFabric(env, netsim.Config{})
	cpu1 := cpusched.New(env, reg, 4, ghz2, cpusched.Config{})
	cpu2 := cpusched.New(env, reg, 4, ghz2, cpusched.Config{})
	nic1 := fab.AddHost("host1", cpu1.NewThread("softirq1", "host1"))
	fab.AddHost("host2", cpu2.NewThread("softirq2", "host2"))
	got := &sink{sig: sim.NewSignal(env)}

	var op func(p *sim.Proc)
	switch path {
	case "transmit":
		mk := func(vm string) *virtio.NetDev {
			d := virtio.NewNetDev(env, virtio.Config{}, vm, "host1",
				cpu1.NewThread("vcpu:"+vm, vm), cpu1.NewThread("vhost:"+vm, vm), nic1, fab)
			d.Start()
			return d
		}
		a, b := mk("vmA"), mk("vmB")
		b.SetDeliver(func(fr netsim.Frame) { got.DeliverFromWire(fr) })
		payload := data.NewSlice(data.Zero(64 << 10))
		op = func(p *sim.Proc) { a.Transmit(p, netsim.Frame{DstVM: "vmB", Payload: payload}) }
	case "send":
		fab.RegisterVM("sink", "host2", got)
		payload := data.NewSlice(data.Zero(64 << 10))
		op = func(*sim.Proc) { nic1.SendToVM(netsim.Frame{DstVM: "sink", Payload: payload}, nil) }
	case "qp":
		recv := func(fr netsim.Frame) { got.DeliverFromWire(fr) }
		qp := fab.NewQP("host1", cpu1.NewThread("rdma1", "host1"), recv, "host2", cpu2.NewThread("rdma2", "host2"), recv)
		payload := data.NewSlice(data.Zero(1 << 20))
		op = func(*sim.Proc) { qp.PostFrom("host1", netsim.Frame{Payload: payload}, nil) }
	}
	return procBatches(env, k, func(p *sim.Proc) error {
		target := got.n + k
		for i := 0; i < k; i++ {
			op(p)
		}
		waitFor(p, got.sig, &got.n, target)
		return nil
	})
}

// newMicroCluster is a one-host cluster with two VMs.
func newMicroCluster() (*cluster.Cluster, *cluster.VM, *cluster.VM) {
	c := cluster.New(1, cluster.Params{})
	h := c.AddHost("host1")
	return c, h.AddVM("client", metrics.TagClientApp), h.AddVM("server", metrics.TagDatanodeApp)
}

// benchConn measures a 1 MiB Conn.Send plus the peer's RecvFull between
// co-located VMs.
func benchConn() ([]float64, float64, error) {
	const k, mb = 4, 1 << 20
	c, client, server := newMicroCluster()
	defer c.Close()
	sig := sim.NewSignal(c.Env)
	received := 0
	l := server.Kernel.Listen(7100)
	c.Go("server", func(p *sim.Proc) {
		conn, ok := l.Accept(p)
		if !ok {
			return
		}
		for {
			if _, ok := conn.RecvFull(p, mb); !ok {
				return
			}
			received++
			sig.Signal()
		}
	})
	var conn *guest.Conn
	payload := data.NewSlice(data.Zero(mb))
	return procBatches(c.Env, k, func(p *sim.Proc) error {
		if conn == nil {
			cn, err := client.Kernel.Dial(p, "server", 7100)
			if err != nil {
				return err
			}
			conn = cn
		}
		target := received + k
		for i := 0; i < k; i++ {
			if err := conn.Send(p, payload); err != nil {
				return err
			}
		}
		waitFor(p, sig, &received, target)
		return nil
	})
}

// benchAppend measures Kernel.AppendFile of 1 MiB; each batch appends to a
// fresh file so the file system never grows past one batch per file.
func benchAppend() ([]float64, float64, error) {
	const k = 4
	c, client, _ := newMicroCluster()
	defer c.Close()
	chunk := data.Pattern{Seed: 1, Size: 1 << 20}
	batch := 0
	return procBatches(c.Env, k, func(p *sim.Proc) error {
		batch++
		path := fmt.Sprintf("/append-%d", batch)
		if err := client.Kernel.CreateFile(p, path); err != nil {
			return err
		}
		for i := 0; i < k; i++ {
			if err := client.Kernel.AppendFile(p, path, chunk); err != nil {
				return err
			}
		}
		return client.Kernel.RemoveFile(p, path)
	})
}

func benchCacheLookup() ([]float64, float64, error) {
	const k, chunk, chunks = 1024, 64 << 10, 1024
	pc := storage.NewPageCache("micro", 1<<30, chunk)
	pc.Insert(1, 0, chunks*chunk)
	ns, allocs := hostBatches(k, func() {
		for j := int64(0); j < k; j++ {
			pc.Lookup(1, (j%chunks)*chunk, chunk)
		}
	})
	return ns, allocs, nil
}

func benchDiskRead() ([]float64, float64, error) {
	const k = 64
	env := sim.NewEnv(1)
	defer env.Close()
	d := storage.NewDisk(env, "micro", storage.DiskConfig{})
	fn := func() {}
	var err error
	ns, allocs := hostBatches(k, func() {
		for j := 0; j < k; j++ {
			d.ReadAsync(1<<20, fn)
		}
		if e := env.Run(); e != nil {
			err = e
		}
	})
	return ns, allocs, err
}

func benchEqual() ([]float64, float64, error) {
	const k = 16
	a := data.NewSlice(data.Pattern{Seed: 7, Size: 64 << 10})
	b := data.NewSlice(data.Pattern{Seed: 7, Size: 64 << 10})
	equal := true
	ns, allocs := hostBatches(k, func() {
		for j := 0; j < k; j++ {
			equal = equal && data.Equal(a, b)
		}
	})
	if !equal {
		return nil, 0, fmt.Errorf("data.Equal: identical patterns compared unequal")
	}
	return ns, allocs, nil
}

// benchTestbed measures a vRead read of 1 MiB (Lib.OpenPath, ReadAt, Close)
// from a block on the co-located ("local") or the other host's ("remote")
// datanode, or a namespace lookup through a 4-shard router ("locate"), on
// the two-host testbed.
func benchTestbed(what string) ([]float64, float64, error) {
	const k, mb = 4, 1 << 20
	tb := experiments.NewTestbed(experiments.Options{Seed: 1, VRead: true, Shards: 4})
	defer tb.Close()
	client := tb.C.VM("client").Kernel
	scenario, path := experiments.Colocated, "/micro/local"
	if what == "remote" {
		scenario, path = experiments.Remote, "/micro/remote"
	}
	tb.Place(scenario)
	var blk hdfs.BlockInfo
	reads := 0
	return procBatches(tb.C.Env, k, func(p *sim.Proc) error {
		if blk.Locations == nil {
			if err := tb.Client.WriteFile(p, path, data.Pattern{Seed: 3, Size: 8 * mb}); err != nil {
				return err
			}
			infos, err := tb.Router.GetBlockLocations(p, client, path)
			if err != nil {
				return err
			}
			blk = infos[0]
			if want := map[string]string{"local": "dn1", "remote": "dn2"}[what]; want != "" && blk.Locations[0] != want {
				return fmt.Errorf("%s block placed on %v, want %s first", what, blk.Locations, want)
			}
		}
		for i := 0; i < k; i++ {
			if what == "locate" {
				if _, err := tb.Router.GetBlockLocations(p, client, path); err != nil {
					return err
				}
				continue
			}
			vfd, ok := tb.Lib.OpenPath(p, nil, blk.Locations[0], hdfs.BlockPath(blk.ID), blk.BlockName())
			if !ok {
				return fmt.Errorf("vRead open of %s on %s failed", path, blk.Locations[0])
			}
			off := int64(reads%7) * mb
			reads++
			if _, err := vfd.ReadAt(p, nil, off, mb); err != nil {
				return err
			}
			vfd.Close(p, nil)
		}
		return nil
	})
}

func benchAddCycles() ([]float64, float64, error) {
	const k = 1024
	reg := metrics.NewRegistry()
	ns, allocs := hostBatches(k, func() {
		for j := 0; j < k; j++ {
			reg.AddCycles("vm", metrics.TagOthers, 100)
		}
	})
	return ns, allocs, nil
}

func benchTraceRequest() ([]float64, float64, error) {
	const k = 256
	env := sim.NewEnv(1)
	defer env.Close()
	ns, allocs := hostBatches(k, func() {
		tracer := trace.NewTracer(env, 1)
		for j := 0; j < k; j++ {
			tracer.Request("micro").Finish(0)
		}
	})
	return ns, allocs, nil
}

package main

import (
	"errors"
	"fmt"
	"time"

	"vread/internal/cluster"
	"vread/internal/core"
	"vread/internal/data"
	"vread/internal/experiments"
	"vread/internal/faults"
	"vread/internal/hdfs"
	"vread/internal/metrics"
	"vread/internal/sim"
	"vread/internal/trace"
	"vread/internal/workload"
)

// scaleStormConfig is scenarios/scale-smoke.json's topology with faults off
// and one 4000 QPS cell of stormArrivals arrivals.
func scaleStormConfig(arrivals int) experiments.ScaleConfig {
	return experiments.ScaleConfig{
		Domains:        4,
		RacksPerDomain: 10,
		HostsPerRack:   25,
		Shards:         4,
		Replication:    3,
		Datanodes:      12,
		Clients:        4,
		Files:          8,
		FileSize:       256 << 10,
		QPSLevels:      []float64{stormQPS},
		Reads:          arrivals,
		Deadline:       time.Hour,
	}
}

// scaleCell mirrors the unexported runScaleCell behind experiments.RunScale
// for one QPS level with faults off: build the federation and write the
// dataset (set-up), then run the open-loop storm (timed). Rows are built
// exactly as RunScale builds them.
func scaleCell(seed int64, sc experiments.ScaleConfig, ps *pass) cellResult {
	qps := sc.QPSLevels[0]
	ps.calibrate()
	res := cellResult{label: fmt.Sprintf("scale-qps=%g", qps), ops: sc.Reads}
	fail := func(err error) cellResult {
		res.err = err
		return res
	}

	t0 := takeSnap()
	c := cluster.New(seed, cluster.Params{})
	defer c.Close()
	spec := cluster.TopologySpec{Domains: sc.Domains, RacksPerDomain: sc.RacksPerDomain, HostsPerRack: sc.HostsPerRack}
	hosts := c.BuildTopology(spec)
	racks := c.Racks()

	plan := faults.NewPlan(c.Env)
	c.InjectFaults(plan)
	c.Fabric.InjectFaults(plan)
	for _, h := range hosts {
		h.Disk.InjectFaults(plan)
	}
	dnNames := make([]string, sc.Datanodes)
	for i := range dnNames {
		rack := racks[i%len(racks)]
		rh := c.RackHosts(rack)
		host := rh[(i/len(racks))%len(rh)]
		dnNames[i] = fmt.Sprintf("dn%d", i)
		host.AddVM(dnNames[i], metrics.TagDatanodeApp)
	}
	clientNames := make([]string, sc.Clients)
	for j := range clientNames {
		host := hosts[len(hosts)-1-j%spec.HostsPerRack]
		clientNames[j] = fmt.Sprintf("c%d", j)
		host.AddVM(clientNames[j], metrics.TagClientApp)
	}
	router := hdfs.NewRouter(c.Env, hdfs.Config{Replication: sc.Replication}, c.Fabric, hdfs.RouterOptions{
		Shards:   sc.Shards,
		RingSeed: seed,
		VNodes:   sc.VNodes,
	})
	router.InjectFaults(plan)
	for _, dn := range dnNames {
		hdfs.StartDataNode(c.Env, router, c.VM(dn).Kernel)
	}
	clients := make([]*hdfs.Client, sc.Clients)
	for j, name := range clientNames {
		clients[j] = hdfs.NewClient(c.Env, router, c.VM(name).Kernel)
	}
	mgr := core.NewManager(c, router, core.Config{Faults: plan})
	for _, dn := range dnNames {
		mgr.MountDatanode(dn)
	}
	libs := make([]*core.Lib, sc.Clients)
	for j, name := range clientNames {
		libs[j] = mgr.EnableClient(name)
		clients[j].SetBlockReader(libs[j])
	}
	tracer := trace.NewTracer(c.Env, 1)
	contents := make([]data.Pattern, sc.Files)
	blocks := make([][]hdfs.BlockInfo, sc.Files)
	t1 := takeSnap()

	var t2, t3 snap
	var ev0, ev1 uint64
	var results []workload.OpResult
	var stormErr error
	done := false
	c.Go("scale-storm", func(p *sim.Proc) {
		defer func() { done = true }()
		for i := range contents {
			contents[i] = data.Pattern{Seed: uint64(seed)*1000 + uint64(i), Size: sc.FileSize}
			path := fmt.Sprintf("/scale/f%d", i)
			if err := clients[0].WriteFile(p, path, contents[i]); err != nil {
				stormErr = fmt.Errorf("write f%d: %w", i, err)
				return
			}
			var err error
			if blocks[i], err = router.GetBlockLocations(p, clients[0].Kernel(), path); err != nil {
				stormErr = fmt.Errorf("locate f%d: %w", i, err)
				return
			}
		}
		t2, ev0 = takeSnap(), c.Env.Fired()
		results = workload.RunOpenLoop(p, c.Env, workload.OpenLoopConfig{QPS: qps, Arrivals: sc.Reads},
			func(op *sim.Proc, i int) string {
				return "steady/" + scaleRead(op, router, libs, clients, tracer, contents, blocks, sc, i)
			})
		t3, ev1 = takeSnap(), c.Env.Fired()
	})
	if err := c.Env.RunUntil(c.Env.Now() + sc.Deadline); err != nil {
		return fail(fmt.Errorf("scale qps=%g: %w", qps, err))
	}
	if stormErr != nil {
		return fail(stormErr)
	}
	if !done {
		return fail(fmt.Errorf("scale qps=%g: storm wedged (deadline %v)", qps, sc.Deadline))
	}
	if pend := c.Env.Pending(); pend != 0 {
		return fail(fmt.Errorf("scale qps=%g: %d events still pending after drain", qps, pend))
	}
	if pend := mgr.PendingRemoteReads(); pend != 0 {
		return fail(fmt.Errorf("scale qps=%g: %d remote reads leaked", qps, pend))
	}
	for _, tr := range tracer.Traces() {
		for _, s := range tr.Spans {
			if s.End < s.Start {
				return fail(fmt.Errorf("scale qps=%g: %s: span %s/%s never closed", qps, tr.Name, s.Layer, s.Name))
			}
		}
	}

	row := experiments.SLORow{Cell: fmt.Sprintf("qps=%g", qps), Phase: "steady", QPS: qps}
	for _, r := range results {
		switch r.Label {
		case "steady/ok":
			row.OKs++
		case "steady/typed":
			row.TypedErrors++
		default:
			return fail(fmt.Errorf("scale qps=%g: invariant broken: %s outcome", qps, r.Label))
		}
		row.Arrivals++
	}
	slo := workload.SLOOf(results, "steady/ok")
	row.P50us = slo.P50.Microseconds()
	row.P95us = slo.P95.Microseconds()
	row.P99us = slo.P99.Microseconds()
	row.MaxUs = slo.Max.Microseconds()

	ps.phase("build", t0, t1)
	ps.phase("dataset_write", t1, t2)
	ps.phase("storm", t2, t3)
	res.setup, res.wall = t2.wall.Sub(t0.wall), t3.wall.Sub(t2.wall)
	ps.timed.add(t2, t3)
	ps.events += ev1 - ev0
	res.model = modelOf(c, mgr)
	res.rows = experiments.RenderSLORows([]experiments.SLORow{row})
	return res
}

// scaleRead mirrors the storm read of experiments.RunScale: a router lookup,
// then a 64 KiB vRead read byte-checked against the written pattern, with
// replica failover in location order.
func scaleRead(op *sim.Proc, router *hdfs.Router, libs []*core.Lib, clients []*hdfs.Client,
	tracer *trace.Tracer, contents []data.Pattern, blocks [][]hdfs.BlockInfo, sc experiments.ScaleConfig, i int) string {
	fileIdx := i % sc.Files
	ci := i % sc.Clients
	size := sc.FileSize
	off := int64(i*7919) % (size - 1)
	n := min(size-off, 64<<10)
	want := data.NewSlice(contents[fileIdx]).Sub(off, n)

	tr := tracer.Request(fmt.Sprintf("scale-read-%d", i))
	defer tr.Finish(n)

	infos, err := router.GetBlockLocations(op, clients[ci].Kernel(), fmt.Sprintf("/scale/f%d", fileIdx))
	if err != nil {
		if errors.Is(err, hdfs.ErrShardDown) {
			return "typed"
		}
		return "untyped"
	}
	blk := infos[0]
	sawUntyped := false
	for _, loc := range blk.Locations {
		vfd, ok := libs[ci].OpenPath(op, tr, loc, hdfs.BlockPath(blk.ID), blk.ID.BlockName())
		if !ok {
			continue
		}
		got, err := vfd.ReadAt(op, tr, off, n)
		vfd.Close(op, tr)
		switch {
		case err == nil:
			if data.Equal(got, want) {
				return "ok"
			}
			return "corrupt"
		case errors.Is(err, core.ErrDaemonFailed), errors.Is(err, core.ErrShortRead),
			errors.Is(err, core.ErrRingClosed), errors.Is(err, core.ErrBadRange):
			continue
		default:
			sawUntyped = true
		}
	}
	if sawUntyped {
		return "untyped"
	}
	return "typed"
}

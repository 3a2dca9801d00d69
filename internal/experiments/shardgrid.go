// Shard grid: the scaled read-storm experiment that exercises the sharded
// multi-core engine end to end. A datacenter topology is built as a sharded
// cluster (one Env, registry, and shard.LP per host), client hosts drive
// closed-loop read streams against datanode hosts over the fabric, and every
// completion is logged on the receiving host. The experiment's contract is
// the tentpole's: the SLO rows and the completion-log fingerprint are
// byte-identical for every shard count K, so the parallel run is a drop-in
// replacement for the serial one — only the wall clock changes.
package experiments

import (
	"fmt"
	"hash/fnv"
	"strings"
	"time"

	"vread/internal/cluster"
	"vread/internal/data"
	"vread/internal/netsim"
	"vread/internal/sim"
	"vread/internal/workload"
)

// ShardGridConfig describes one sharded read-storm scenario.
type ShardGridConfig struct {
	Seed int64
	// Topology: Domains x RacksPerDomain x HostsPerRack hosts. Defaults
	// 1 x 4 x 4.
	Domains        int
	RacksPerDomain int
	HostsPerRack   int
	// ClientHosts is how many hosts (taken from the topology tail) drive
	// load; the rest serve as datanodes. Default 4.
	ClientHosts int
	// StreamsPerHost is the closed-loop reader count per client host; each
	// stream keeps exactly one request in flight. Default 4.
	StreamsPerHost int
	// ReadsPerStream is how many reads each stream issues. Default 32.
	ReadsPerStream int
	// ReadSize is bytes per read. Default 256 KiB.
	ReadSize int64
	// FileSize is the per-datanode object size reads are spread over.
	// Default 64 MiB.
	FileSize int64
	// Deadline bounds the storm in virtual time. Default 2 s.
	Deadline time.Duration
	// Shards lists the shard counts to run, one grid cell each. Default
	// {1, 4}. Cell 0 is the serial baseline the others are compared to.
	Shards []int
}

// WithDefaults fills zero fields.
func (c ShardGridConfig) WithDefaults() ShardGridConfig {
	if c.Domains == 0 {
		c.Domains = 1
	}
	if c.RacksPerDomain == 0 {
		c.RacksPerDomain = 4
	}
	if c.HostsPerRack == 0 {
		c.HostsPerRack = 4
	}
	if c.ClientHosts == 0 {
		c.ClientHosts = 4
	}
	if c.StreamsPerHost == 0 {
		c.StreamsPerHost = 4
	}
	if c.ReadsPerStream == 0 {
		c.ReadsPerStream = 32
	}
	if c.ReadSize == 0 {
		c.ReadSize = 256 << 10
	}
	if c.FileSize == 0 {
		c.FileSize = 64 << 20
	}
	if c.Deadline == 0 {
		c.Deadline = 2 * time.Second
	}
	if len(c.Shards) == 0 {
		c.Shards = []int{1, 4}
	}
	return c
}

// ShardGridCell is one shard count's run: virtual-time results that must not
// depend on K, plus the wall-clock measurements that should.
type ShardGridCell struct {
	// Shards is the requested worker count K.
	Shards int
	// Hosts is the topology size.
	Hosts int
	// Rows carries the storm's SLO aggregates (virtual time; K-invariant).
	Rows []SLORow
	// Fingerprint is FNV-1a over every host's completion log and the
	// rendered rows, in host order. Byte-identity across K collapses to
	// comparing these.
	Fingerprint uint64
	// Events is the total simulated events fired across all LPs.
	Events uint64
	// Wall is the host wall-clock time the cell took (the only field that
	// may — should — vary with K).
	Wall time.Duration
}

// RunShardGrid runs one cell per configured shard count and returns them in
// order. Every cell rebuilds the cluster from the same seed, so cells differ
// only in K; callers assert Fingerprint equality across cells to check the
// engine's partition invariance, and compare Wall for the speedup.
func RunShardGrid(cfg ShardGridConfig) ([]ShardGridCell, error) {
	cfg = cfg.WithDefaults()
	total := cfg.Domains * cfg.RacksPerDomain * cfg.HostsPerRack
	if cfg.ClientHosts >= total {
		return nil, fmt.Errorf("shardgrid: %d client hosts leave no datanodes in a %d-host topology", cfg.ClientHosts, total)
	}
	if cfg.ReadSize > cfg.FileSize {
		return nil, fmt.Errorf("shardgrid: read size %d exceeds file size %d", cfg.ReadSize, cfg.FileSize)
	}
	cells := make([]ShardGridCell, 0, len(cfg.Shards))
	for _, k := range cfg.Shards {
		cell, err := runShardCell(cfg, k)
		if err != nil {
			return nil, fmt.Errorf("shardgrid: shards=%d: %w", k, err)
		}
		cells = append(cells, cell)
	}
	return cells, nil
}

// Ports for the storm protocol: a request to reqPort+stream is answered on
// respPort+stream of the requesting host, so each stream has a private
// FIFO lane and reply matching needs no message IDs.
const (
	shardGridReqPort  = 7000
	shardGridRespPort = 7400
)

func runShardCell(cfg ShardGridConfig, k int) (ShardGridCell, error) {
	start := time.Now() //lint:allow determinism(wall clock measured from outside the simulation)
	c := cluster.NewSharded(cfg.Seed, cluster.Params{}, k)
	defer c.Close()
	hosts := c.BuildTopology(cluster.TopologySpec{
		Domains:        cfg.Domains,
		RacksPerDomain: cfg.RacksPerDomain,
		HostsPerRack:   cfg.HostsPerRack,
	})
	c.AssignRackShards()
	dns := hosts[:len(hosts)-cfg.ClientHosts]
	clients := hosts[len(hosts)-cfg.ClientHosts:]

	// Datanode side: per stream lane, serve reads through the host page
	// cache with disk fills on miss. The request carries no parameters —
	// the offset is derived from a per-(lane, source) counter, which is
	// deterministic because each closed-loop stream has one request in
	// flight (its lane is strictly FIFO).
	span := cfg.FileSize - cfg.ReadSize + 1
	for _, h := range dns {
		h := h
		obj := int64(h.ID)
		for s := 0; s < cfg.StreamsPerHost; s++ {
			s := s
			counts := make(map[string]int64)
			c.Fabric.BindHostPort(h.Name, shardGridReqPort+s, func(fr netsim.Frame) {
				cnt := counts[fr.SrcHost]
				counts[fr.SrcHost] = cnt + 1
				off := (cnt * 2654435761) % span
				reply := func() {
					h.NIC.SendToHost(fr.SrcHost, shardGridRespPort+s,
						netsim.Frame{Payload: data.NewSlice(data.Zero(cfg.ReadSize))}, nil)
				}
				_, miss := h.Cache.Lookup(obj, off, cfg.ReadSize)
				if miss > 0 {
					h.Disk.ReadAsync(miss, func() {
						h.Cache.Insert(obj, off, cfg.ReadSize)
						reply()
					})
					return
				}
				reply()
			})
		}
	}

	// Client side: StreamsPerHost closed-loop readers per client host, each
	// walking the datanodes round-robin from its own starting point. Each
	// stream's replies land on its private response port, so reply matching
	// is per-lane FIFO.
	nStreams := len(clients) * cfg.StreamsPerHost
	ops := make([]workload.OpResult, nStreams*cfg.ReadsPerStream)
	logs := make([]*strings.Builder, len(clients))
	streamsDone := 0
	for ci, h := range clients {
		ci, h := ci, h
		logs[ci] = &strings.Builder{}
		for s := 0; s < cfg.StreamsPerHost; s++ {
			s := s
			stream := ci*cfg.StreamsPerHost + s
			arrived := 0
			var sig sim.Signal
			c.Fabric.BindHostPort(h.Name, shardGridRespPort+s, func(fr netsim.Frame) {
				arrived++
				sig.Signal()
			})
			h.Go(fmt.Sprintf("storm:%s:%d", h.Name, s), func(p *sim.Proc) {
				for i := 0; i < cfg.ReadsPerStream; i++ {
					dn := dns[(stream+i)%len(dns)]
					t0 := h.Env.Now()
					h.NIC.SendToHost(dn.Name, shardGridReqPort+s,
						netsim.Frame{Payload: data.NewSlice(data.Zero(64))}, nil)
					for arrived <= i {
						sig.Wait(p)
					}
					lat := h.Env.Now() - t0
					ops[stream*cfg.ReadsPerStream+i] = workload.OpResult{Start: t0, Latency: lat, Label: "ok"}
					fmt.Fprintf(logs[ci], "%s s%d r%d <- %s %dB lat=%v\n",
						h.Name, s, i, dn.Name, cfg.ReadSize, lat)
				}
				streamsDone++
			})
		}
	}

	if err := c.RunUntil(cfg.Deadline); err != nil {
		return ShardGridCell{}, err
	}
	if streamsDone != nStreams {
		return ShardGridCell{}, fmt.Errorf("storm wedged: %d of %d streams finished by %v", streamsDone, nStreams, cfg.Deadline)
	}

	slo := workload.SLOOf(ops, "ok")
	row := SLORow{
		Cell:     fmt.Sprintf("hosts=%d dn=%d streams=%d", len(hosts), len(dns), nStreams),
		Phase:    "steady",
		QPS:      float64(len(ops)) / cfg.Deadline.Seconds(),
		Arrivals: len(ops),
		OKs:      len(ops),
		P50us:    slo.P50.Microseconds(),
		P95us:    slo.P95.Microseconds(),
		P99us:    slo.P99.Microseconds(),
		MaxUs:    slo.Max.Microseconds(),
	}
	rows := []SLORow{row}

	fp := fnv.New64a()
	for _, l := range logs {
		fp.Write([]byte(l.String()))
	}
	fp.Write([]byte(RenderSLORows(rows)))

	return ShardGridCell{
		Shards:      k,
		Hosts:       len(hosts),
		Rows:        rows,
		Fingerprint: fp.Sum64(),
		Events:      c.Coord.Fired(),
		Wall:        time.Since(start), //lint:allow determinism(wall clock measured from outside the simulation)
	}, nil
}

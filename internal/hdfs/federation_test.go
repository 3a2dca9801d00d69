package hdfs

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"vread/internal/cluster"
	"vread/internal/data"
	"vread/internal/metrics"
	"vread/internal/sim"
)

func ringOf(seed int64, nodes int) *Ring {
	r := NewRing(seed, 0)
	for i := 0; i < nodes; i++ {
		r.AddNode(fmt.Sprintf("dn%d", i), fmt.Sprintf("d%d", i%3))
	}
	return r
}

// TestRingDeterminism: two same-seed constructions are byte-identical, and
// the seed actually matters.
func TestRingDeterminism(t *testing.T) {
	a, b := ringOf(42, 10), ringOf(42, 10)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same-seed rings differ")
	}
	if reflect.DeepEqual(a.entries, ringOf(43, 10).entries) {
		t.Fatal("different seeds produced identical rings")
	}
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("/f%d#0", i)
		av, bv := a.Place(key, 3), b.Place(key, 3)
		if fmt.Sprint(av) != fmt.Sprint(bv) {
			t.Fatalf("placement of %s diverged: %v vs %v", key, av, bv)
		}
	}
}

// TestRingRebalanceBound: adding an Nth node moves only the keys it now
// owns — about K/N of them, and every moved key moves to the new node.
func TestRingRebalanceBound(t *testing.T) {
	const nodes, keys = 10, 2000
	r := ringOf(7, nodes-1)
	before := make([]string, keys)
	for i := range before {
		before[i] = r.Place(fmt.Sprintf("key-%d", i), 1)[0]
	}
	const added = "dn-new"
	r.AddNode(added, "d0")
	moved := 0
	for i := range before {
		after := r.Place(fmt.Sprintf("key-%d", i), 1)[0]
		if after == before[i] {
			continue
		}
		if after != added {
			t.Fatalf("key-%d moved from %s to %s although %s was the node added", i, before[i], after, added)
		}
		moved++
	}
	// Expect ~K/N = 200 moves; allow 2× slack for hash imbalance.
	if moved == 0 || moved > 2*keys/nodes {
		t.Fatalf("addition moved %d of %d keys, want ~%d (≤ %d)", moved, keys, keys/nodes, 2*keys/nodes)
	}
}

// TestRingDomainSpread: with enough domains, replicas land in distinct ones;
// when the replica count exceeds the domain count, nodes are still distinct.
func TestRingDomainSpread(t *testing.T) {
	r := ringOf(3, 9) // 9 nodes over domains d0,d1,d2
	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("/spread/f%d#0", i)
		reps := r.Place(key, 3)
		if len(reps) != 3 {
			t.Fatalf("%s: got %d replicas", key, len(reps))
		}
		doms := map[string]bool{}
		for _, n := range reps {
			doms[r.domains[n]] = true
		}
		if len(doms) != 3 {
			t.Fatalf("%s: replicas %v span only domains %v", key, reps, doms)
		}
		wide := r.Place(key, 5)
		seen := map[string]bool{}
		for _, n := range wide {
			if seen[n] {
				t.Fatalf("%s: duplicate node in %v", key, wide)
			}
			seen[n] = true
		}
		if len(wide) != 5 {
			t.Fatalf("%s: got %d of 5 replicas", key, len(wide))
		}
	}
}

// ringBytes serializes a ring's entries in order: hash, node and vnode
// index of each, the bytes two identical rings share.
func ringBytes(entries []ringEntry) []byte {
	var b []byte
	for _, e := range entries {
		b = binary.BigEndian.AppendUint64(b, e.hash)
		b = append(b, e.node...)
		b = append(b, 0)
		b = binary.BigEndian.AppendUint64(b, uint64(e.vidx))
	}
	return b
}

// TestRingInsertOrderProperty: AddNode merges a node's sorted vnodes into
// the ring, so random node sets inserted in random orders give the entries
// that sorting every vnode at once by (hash, node, vidx) gives, byte for
// byte.
func TestRingInsertOrderProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		seed, vnodes := rng.Int63(), 1+rng.Intn(16)
		nodes := make([]string, 1+rng.Intn(12))
		for i := range nodes {
			nodes[i] = fmt.Sprintf("dn%d", rng.Intn(1000)*len(nodes)+i) // distinct
		}
		var want []ringEntry
		for _, n := range nodes {
			for v := 0; v < vnodes; v++ {
				want = append(want, ringEntry{hash: fnv1a(seed, fmt.Sprintf("%s#%d", n, v)), node: n, vidx: v})
			}
		}
		sort.Slice(want, func(i, j int) bool {
			a, b := want[i], want[j]
			if a.hash != b.hash {
				return a.hash < b.hash
			}
			if a.node != b.node {
				return a.node < b.node
			}
			return a.vidx < b.vidx
		})
		for order := 0; order < 3; order++ {
			r := NewRing(seed, vnodes)
			for _, i := range rng.Perm(len(nodes)) {
				r.AddNode(nodes[i], "")
			}
			if !slices.IsSortedFunc(r.entries, ringEntry.compare) {
				t.Fatalf("trial %d: entries out of (hash, node, vidx) order", trial)
			}
			if !bytes.Equal(ringBytes(r.entries), ringBytes(want)) {
				t.Fatalf("trial %d: %d nodes × %d vnodes inserted in a random order differ from sorting all at once",
					trial, len(nodes), vnodes)
			}
		}
	}
}

type fixedTopo struct{}

func (fixedTopo) HostOf(vm string) (string, bool) { return "h", true }

// TestRouterHashRoutingAndStripes: hash routing spreads paths over the
// shards, and the block-ID stripe is invertible.
func TestRouterHashRoutingAndStripes(t *testing.T) {
	env := sim.NewEnv(1)
	ro := NewRouter(env, Config{}, fixedTopo{}, RouterOptions{Shards: 4, RingSeed: 9})
	seen := map[int]bool{}
	for i := 0; i < 64; i++ {
		idx := ro.ShardOf(fmt.Sprintf("/data/f%d", i))
		if idx < 0 || idx >= 4 {
			t.Fatalf("shard %d out of range", idx)
		}
		seen[idx] = true
	}
	if len(seen) < 3 {
		t.Fatalf("hash routing used only shards %v of 4", seen)
	}
	// Stripe: shard i allocates i+1, i+1+S, i+1+2S, …
	for i, sh := range ro.shards {
		for k := 0; k < 3; k++ {
			id := BlockID(sh.blockBase + 1 + int64(k)*sh.blockStride)
			if got := ro.shardOfBlock(id); got != i {
				t.Fatalf("block %d: shardOfBlock = %d, want %d", id, got, i)
			}
		}
	}
}

// TestFederationEndToEnd writes replicated files through a 4-shard router on
// a 3-domain topology and checks: block IDs are cluster-unique, replicas
// span 3 fault domains, reads return the written bytes, and PlacementOf is
// deterministic.
func TestFederationEndToEnd(t *testing.T) {
	c := cluster.New(1, cluster.Params{})
	defer c.Close()
	hosts := c.BuildTopology(cluster.TopologySpec{Domains: 3, RacksPerDomain: 1, HostsPerRack: 2})
	for i, h := range hosts {
		h.AddVM(fmt.Sprintf("dn%d", i), metrics.TagDatanodeApp)
	}
	clientVM := hosts[0].AddVM("client", metrics.TagClientApp)

	ro := NewRouter(c.Env, Config{Replication: 3, BlockSize: 1 << 20}, c.Fabric,
		RouterOptions{Shards: 4, RingSeed: 1})
	for i := range hosts {
		StartDataNode(c.Env, ro, c.VM(fmt.Sprintf("dn%d", i)).Kernel)
	}
	cl := NewClient(c.Env, ro, clientVM.Kernel)

	const files = 6
	content := data.Pattern{Seed: 99, Size: 2<<20 + 512} // 3 blocks each
	done := false
	c.Go("fed", func(p *sim.Proc) {
		ids := map[BlockID]bool{}
		for f := 0; f < files; f++ {
			path := fmt.Sprintf("/fed/f%d", f)
			if err := cl.WriteFile(p, path, content); err != nil {
				t.Errorf("write %s: %v", path, err)
				return
			}
			infos, err := ro.GetBlockLocations(p, cl.Kernel(), path)
			if err != nil {
				t.Error(err)
				return
			}
			for _, b := range infos {
				if ids[b.ID] {
					t.Errorf("block ID %d allocated twice across shards", b.ID)
				}
				ids[b.ID] = true
				if ro.shardOfBlock(b.ID) != ro.ShardOf(path) {
					t.Errorf("block %d of %s: stripe says shard %d, path routes to %d",
						b.ID, path, ro.shardOfBlock(b.ID), ro.ShardOf(path))
				}
				doms := map[string]bool{}
				for _, loc := range b.Locations {
					host, _ := c.Fabric.HostOf(loc)
					d, _ := c.Fabric.DomainOf(host)
					doms[d] = true
				}
				if len(b.Locations) != 3 || len(doms) != 3 {
					t.Errorf("block %d: replicas %v span domains %v, want 3 across 3", b.ID, b.Locations, doms)
				}
			}
		}
		r, err := cl.Open(p, "/fed/f0")
		if err != nil {
			t.Error(err)
			return
		}
		got, err := r.ReadFull(p, content.Size)
		r.Close(p)
		if err != nil {
			t.Error(err)
			return
		}
		if !data.Equal(got, data.NewSlice(content)) {
			t.Error("read-back bytes differ from written bytes")
		}
		done = true
	})
	if err := c.Env.RunUntil(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("federation workload did not finish")
	}

	pa, err := ro.PlacementOf("/fed/f1")
	if err != nil {
		t.Fatal(err)
	}
	pb, _ := ro.PlacementOf("/fed/f1")
	if fmt.Sprintf("%+v", pa) != fmt.Sprintf("%+v", pb) {
		t.Fatal("PlacementOf is not deterministic")
	}
	if len(pa) != 3 || len(pa[0].Replicas) != 3 {
		t.Fatalf("placement shape wrong: %+v", pa)
	}
}

package core

import "testing"

// TestQPKeyZeroAlloc: the per-pair QP and downgrade maps are keyed by an
// ordered struct of the two host names, so a warm qpFor and the downgrade
// check on every remote send build no key string.
func TestQPKeyZeroAlloc(t *testing.T) {
	f := newDrainFixture(t, Config{Transport: TransportRDMA})
	m := f.lib.mgr
	qp := m.qpFor("host1", "host2")
	if got := m.qpFor("host2", "host1"); got != qp {
		t.Fatal("qpFor is not symmetric in its hosts")
	}
	if allocs := testing.AllocsPerRun(1000, func() { m.qpFor("host2", "host1") }); allocs != 0 {
		t.Fatalf("warm qpFor allocates %v objects, want 0", allocs)
	}

	m.noteRemoteFailure(nil, "host2", "host1")
	if m.transportTo("host1", "host2") != TransportTCP {
		t.Fatal("downgraded pair does not pick TCP")
	}
	if allocs := testing.AllocsPerRun(1000, func() { m.transportTo("host1", "host2") }); allocs != 0 {
		t.Fatalf("transportTo under a downgrade allocates %v objects, want 0", allocs)
	}
}

package core

import (
	"errors"
	"testing"
	"time"

	"vread/internal/data"
	"vread/internal/faults"
	"vread/internal/sim"
)

// TestDaemonBranches drives one open and read through each branch of the
// daemon's serve path and of its peer's host server, and checks the bytes
// or the typed error the guest sees. Each case also pins the events fired
// and the virtual time at the end of the run, recorded when the daemon, the
// server and libvread still ran as Procs: the handler chains must fire the
// same events at the same instants. The Proc resumes are a ceiling, set to
// what the chains resume (one per libvread call).
func TestDaemonBranches(t *testing.T) {
	const size = 1 << 20
	for _, tc := range []struct {
		name    string
		cfg     Config
		rules   []faults.Rule
		dn      string // dn1 is the client's host, dn2 the peer
		path    string
		off, n  int64
		quiesce bool  // snapshot the ring before the open, restore 10ms later
		wantErr error // nil: the read returns the block's exact bytes
		noOpen  bool  // the open falls back to the vanilla path
		// also, when set, runs as a second Proc beside the reader.
		also func(t *testing.T, f *drainFixture, p *sim.Proc)
		// ran proves the run took the branch.
		ran     func(d *Daemon, m *Manager) bool
		fired   uint64
		now     time.Duration
		resumes uint64
	}{
		{name: "local read", fired: 196, now: 7306636, resumes: 5, dn: "dn1", off: 4097, n: size,
			ran: func(d *Daemon, _ *Manager) bool { return d.stats.BytesLocal == size }},
		{name: "remote RDMA", fired: 1128, now: 12000000, resumes: 5, dn: "dn2", off: 4097, n: 3 * size,
			ran: func(d *Daemon, _ *Manager) bool { return d.stats.BytesRemote == 3*size }},
		{name: "remote TCP after downgrade", fired: 1025, now: 31818465, resumes: 5, dn: "dn2", n: 2 * size,
			rules: []faults.Rule{{Point: faults.RDMAQPTeardown, Prob: 1, AfterN: 5, MaxFires: 1}},
			ran: func(d *Daemon, m *Manager) bool {
				return m.Downgrades() == 1 && d.stats.RemoteRetries == 1 && m.transportTo("host1", "host2") == TransportTCP
			}},
		{name: "window timeout and retry", fired: 793, now: 34546302, resumes: 5, cfg: Config{Transport: TransportTCP}, dn: "dn2", n: size,
			rules: []faults.Rule{{Point: faults.NetFrameDelay, Prob: 1, AfterN: 3, MaxFires: 1, Delay: 30 * time.Millisecond}},
			ran:   func(d *Daemon, _ *Manager) bool { return d.stats.RemoteRetries == 1 }},
		{name: "retries exhausted", fired: 487, now: 407817367, resumes: 5, cfg: Config{Transport: TransportTCP}, dn: "dn2", n: size,
			rules:   []faults.Rule{{Point: faults.NetFrameDrop, Prob: 1, AfterN: 3}},
			wantErr: ErrDaemonFailed,
			ran:     func(d *Daemon, _ *Manager) bool { return d.stats.RemoteRetries == 4*maxReadRetries }},
		{name: "remote open timeout", fired: 35, now: 50044000, resumes: 3, dn: "dn2", n: size, noOpen: true,
			rules: []faults.Rule{{Point: faults.RDMAQPTeardown, Prob: 1, MaxFires: 1}},
			ran: func(d *Daemon, m *Manager) bool {
				return d.stats.OpenMisses == 1 && m.Downgrades() == 1
			}},
		{name: "open miss", fired: 30, now: 4000000, resumes: 3, dn: "dn1", path: "/nope", n: size, noOpen: true,
			ran: func(d *Daemon, _ *Manager) bool { return d.stats.OpenMisses == 1 }},
		{name: "torn read", fired: 168, now: 8260504, resumes: 5, dn: "dn1", n: size, wantErr: ErrShortRead,
			rules: []faults.Rule{{Point: faults.DiskReadTorn, Prob: 1}},
			ran:   func(d *Daemon, _ *Manager) bool { return d.stats.BytesLocal == 0 }},
		{name: "disk read error", fired: 141, now: 8083144, resumes: 5, dn: "dn1", n: size, wantErr: ErrDaemonFailed,
			rules: []faults.Rule{{Point: faults.DiskReadError, Prob: 1}},
			ran:   func(d *Daemon, _ *Manager) bool { return d.stats.BytesLocal == 0 }},
		{name: "ring stall", fired: 193, now: 7004400, resumes: 5, dn: "dn1", n: size,
			rules: []faults.Rule{{Point: faults.RingStall, Prob: 1, MaxFires: 3, Delay: 100 * time.Microsecond}},
			ran:   func(d *Daemon, _ *Manager) bool { return d.faults.Fired(faults.RingStall) == 3 }},
		{name: "slot held", fired: 439, now: 6939430, resumes: 5, dn: "dn2", n: size,
			rules: []faults.Rule{{Point: faults.RingSlotHeld, Prob: 1, MaxFires: 3, Delay: 50 * time.Microsecond}},
			ran:   func(d *Daemon, _ *Manager) bool { return d.faults.Fired(faults.RingSlotHeld) == 3 }},
		{name: "doorbell lost", fired: 193, now: 7004400, resumes: 5, dn: "dn1", n: size,
			rules: []faults.Rule{{Point: faults.RingDoorbellLost, Prob: 1, MaxFires: 2}},
			ran:   func(d *Daemon, _ *Manager) bool { return d.stats.DoorbellsLost == 2 }},
		{name: "daemon crash and restart", fired: 118, now: 9049050, resumes: 5, dn: "dn1", n: size, wantErr: ErrDaemonFailed,
			rules: []faults.Rule{{Point: faults.DaemonCrash, Prob: 1, AfterN: 1, MaxFires: 1}},
			ran:   func(d *Daemon, _ *Manager) bool { return d.stats.Crashes == 1 }},
		{name: "quiesce and replay", fired: 430, now: 16924280, resumes: 8, dn: "dn2", n: size, quiesce: true,
			ran: func(d *Daemon, _ *Manager) bool { return d.stats.Replayed == 1 && d.stats.QuiesceHolds == 1 }},
		{name: "stale key", fired: 209, now: 7516300, resumes: 5, dn: "dn1", n: size,
			rules: []faults.Rule{{Point: faults.RingStaleKey, Prob: 1, AfterN: 1, MaxFires: 1}},
			ran:   func(d *Daemon, _ *Manager) bool { return d.stats.StaleKeys == 1 }},
		{name: "revocation", fired: 96, now: 4000000, resumes: 5, cfg: Config{RingRevokeThreshold: 2}, dn: "dn1", n: size, wantErr: ErrRingRevoked,
			rules: []faults.Rule{{Point: faults.RingBadSlot, Prob: 1, AfterN: 1}},
			ran:   func(d *Daemon, _ *Manager) bool { return d.stats.Revocations == 1 && d.RingState() == "revoked" }},
		{name: "doorbell storm", fired: 252, now: 7046900, resumes: 5, dn: "dn1", n: size,
			rules: []faults.Rule{{Point: faults.RingDoorbellStorm, Prob: 1, MaxFires: 2}},
			ran:   func(d *Daemon, _ *Manager) bool { return d.stats.RingRejects == 2*doorbellStormBurst }},
		{name: "request lock contended", fired: 359, now: 11713240, resumes: 9, dn: "dn1", off: 4097, n: size,
			also: func(t *testing.T, f *drainFixture, p *sim.Proc) {
				vfd, ok := f.lib.OpenPath(p, nil, "dn1", "/blk", "dn1/blk")
				if !ok {
					t.Error("second open fell back")
					return
				}
				got, err := vfd.ReadAt(p, nil, 4097, size)
				if err != nil || !data.Equal(got, data.NewSlice(f.content).Sub(4097, size)) {
					t.Errorf("second read: %d bytes, err %v", got.Len(), err)
				}
				// The first open's Close has run by now; the second
				// descriptor must have survived it, so a third open hits
				// the library's hash and asks the daemon nothing.
				if _, ok := f.lib.OpenPath(p, nil, "dn1", "/blk", "dn1/blk"); !ok {
					t.Error("third open fell back")
				}
				vfd.Close(p, nil)
			},
			ran: func(d *Daemon, _ *Manager) bool { return d.stats.Opens == 2 }},
		// The daemon crashes under the read and stays down for
		// daemonRestartDelay; junk fills the descriptor area meanwhile, so
		// the first retry's Put waits for the restarted daemon to pop one.
		// The crash lost the mounts, so every retry fails.
		{name: "descriptor area full", fired: 378, now: 9049050, resumes: 8, dn: "dn1", n: size, wantErr: ErrDaemonFailed,
			rules: []faults.Rule{{Point: faults.DaemonCrash, Prob: 1, AfterN: 1, MaxFires: 1}},
			also: func(t *testing.T, f *drainFixture, p *sim.Proc) {
				d := f.lib.daemon
				for d.stats.Crashes == 0 {
					p.Sleep(100 * time.Microsecond)
				}
				junk := ringReq{kind: reqOpen, dn: "junk", path: "junk", key: d.ring.key}
				for d.ring.reqs.TryPut(junk) {
				}
				p.Sleep(time.Millisecond)
				if f.lib.stats.Retries != 1 || d.ring.reqs.TryPut(junk) {
					t.Errorf("retry not waiting on the full descriptor area: %d retries", f.lib.stats.Retries)
				}
			},
			ran: func(d *Daemon, _ *Manager) bool { return d.stats.Crashes == 1 && d.stats.RingRejects == 64 }},
		{name: "direct disk bypass", fired: 270, now: 4000000, resumes: 5, cfg: Config{DirectDiskBypass: true}, dn: "dn1", off: 4097, n: size,
			ran: func(d *Daemon, _ *Manager) bool { return d.stats.BytesLocal == size }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newDrainFixture(t, tc.cfg)
			env, m, d := f.c.Env, f.lib.mgr, f.lib.daemon
			plan := faults.NewPlan(env)
			f.c.InjectFaults(plan)
			m.cfg.Faults = plan
			m.InjectGuestFaults("client", plan)
			for _, r := range tc.rules {
				plan.Set(r)
			}
			path := tc.path
			if path == "" {
				path = "/blk"
			}
			var got data.Slice
			var err error
			opened := false
			f.c.Go("branch", func(p *sim.Proc) {
				if tc.quiesce {
					p.Sleep(time.Millisecond)
				}
				vfd, ok := f.lib.OpenPath(p, nil, tc.dn, path, tc.dn+path)
				if !ok {
					return
				}
				opened = true
				got, err = vfd.ReadAt(p, nil, tc.off, tc.n)
				vfd.Close(p, nil)
			})
			if tc.also != nil {
				f.c.Go("also", func(p *sim.Proc) { tc.also(t, f, p) })
			}
			if tc.quiesce {
				f.c.Go("quiesce", func(p *sim.Proc) {
					snap, err := m.RingSnapshot(p, "client")
					if err != nil {
						t.Error(err)
						return
					}
					p.Sleep(10 * time.Millisecond)
					if err := m.RingRestore(p, snap); err != nil {
						t.Error(err)
					}
				})
			}
			if err := env.Run(); err != nil {
				t.Fatal(err)
			}
			switch {
			case opened == tc.noOpen:
				t.Fatalf("open succeeded = %v, want %v", opened, !tc.noOpen)
			case tc.noOpen:
			case tc.wantErr != nil:
				if !errors.Is(err, tc.wantErr) || got.Len() != 0 {
					t.Fatalf("read returned %d bytes, err %v; want %v", got.Len(), err, tc.wantErr)
				}
			case err != nil:
				t.Fatalf("read: %v", err)
			case !data.Equal(got, data.NewSlice(f.content).Sub(tc.off, tc.n)):
				t.Fatal("read bytes differ from the block")
			}
			if !tc.ran(d, m) {
				t.Errorf("branch not taken: daemon stats %+v, downgrades %d", d.stats, m.Downgrades())
			}
			if n := m.PendingRemoteReads(); n != 0 {
				t.Errorf("%d remote requests left pending", n)
			}
			if env.Fired() != tc.fired || env.Now() != tc.now || env.Resumes() > tc.resumes {
				t.Errorf("fired/now/resumes = %d/%v/%d, want %d/%v/≤%d",
					env.Fired(), env.Now(), env.Resumes(), tc.fired, tc.now, tc.resumes)
			}
		})
	}
}

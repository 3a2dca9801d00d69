package core_test

import (
	"errors"
	"testing"
	"time"

	"vread/internal/core"
	"vread/internal/data"
	"vread/internal/faults"
	"vread/internal/hdfs"
	"vread/internal/sim"
	"vread/internal/trace"
)

// Black-box liveness tests for the hardened ring: every sanitizer rejection
// path must leave the guest with a typed error (or a clean retry), never a
// hang, and the quiesce/restore protocol must replay captured descriptors
// byte-exactly. The verdict table itself is pinned white-box in
// sanitize_test.go.

// TestHostileForgedDescriptorsStayLive drives each guest-side forgery through
// a full ring round trip: a one-shot forgery is retried to correct bytes
// without a fallback; a persistent one exhausts the retries into the expected
// typed error — and in both shapes the sim drains (fx.run would fail the test
// on a hung reader).
func TestHostileForgedDescriptorsStayLive(t *testing.T) {
	cases := []struct {
		name string
		rule faults.Rule
		// persistent forgeries surface wantErr after retries; one-shot
		// forgeries (wantErr nil) must recover to correct bytes.
		wantErr    error
		wantStale  int64 // daemon StaleKeys count after the read
		minRejects int64
	}{
		{
			name:       "bad slot one-shot recovers",
			rule:       faults.Rule{Point: faults.RingBadSlot, Prob: 1, AfterN: 1, MaxFires: 1},
			minRejects: 1,
		},
		{
			name: "bad slot persistent surfaces daemon error",
			// Unlimited fires cycle all four forgery variants (bad opcode,
			// negative range, overflowing range, oversized name) across the
			// 1+maxReadRetries attempts — every sanitizer arm, end to end.
			rule:       faults.Rule{Point: faults.RingBadSlot, Prob: 1, AfterN: 1},
			wantErr:    core.ErrDaemonFailed,
			minRejects: 4,
		},
		{
			name:       "stale key one-shot recovers",
			rule:       faults.Rule{Point: faults.RingStaleKey, Prob: 1, AfterN: 1, MaxFires: 1},
			wantStale:  1,
			minRejects: 1,
		},
		{
			name:       "stale key persistent surfaces typed error",
			rule:       faults.Rule{Point: faults.RingStaleKey, Prob: 1, AfterN: 1},
			wantErr:    core.ErrStaleKey,
			wantStale:  4,
			minRejects: 4,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fx, plan := newFaultFixture(t, core.Config{})
			defer fx.c.Close()
			content := data.Pattern{Seed: 61, Size: 1 << 20}
			fx.write(t, "/f", content)
			plan.Set(c.rule)

			tracer := trace.NewTracer(fx.c.Env, 1)
			var tr *trace.Trace
			fx.run(t, 240*time.Second, "reader", func(p *sim.Proc) {
				tr = tracer.Request("hostile-read")
				vfd, ok := fx.lib.OpenPath(p, tr, "dn1", hdfs.BlockPath(1), "blk_1")
				if !ok {
					t.Error("open failed before the forgery window")
					return
				}
				got, err := vfd.ReadAt(p, tr, 0, content.Size)
				vfd.Close(p, tr)
				tr.Finish(0)
				if c.wantErr != nil {
					if !errors.Is(err, c.wantErr) {
						t.Errorf("err = %v, want %v", err, c.wantErr)
					}
					return
				}
				if err != nil {
					t.Errorf("forged read did not recover: %v", err)
					return
				}
				if !data.Equal(got, data.NewSlice(content)) {
					t.Error("bytes corrupted by forged descriptor recovery")
				}
			})
			st := fx.mgr.Daemon("client").Stats()
			if st.RingRejects < c.minRejects {
				t.Errorf("ring rejects = %d, want >= %d", st.RingRejects, c.minRejects)
			}
			if st.StaleKeys != c.wantStale {
				t.Errorf("stale-key rejects = %d, want %d", st.StaleKeys, c.wantStale)
			}
			if fx.lib.Stats().Retries == 0 {
				t.Error("libvread never retried the forged read")
			}
			if fx.dn1.ServedBytes() != 0 {
				t.Error("forgery caused a vanilla fallback")
			}
			if fired := plan.Fired(c.rule.Point); fired < c.minRejects {
				t.Errorf("%s fired %d times, want >= %d", c.rule.Point, fired, c.minRejects)
			}
			assertSpansBalanced(t, tr)
		})
	}
}

// TestDoorbellStormKeepsStreamExact: junk no-reply descriptors flooding the
// ring ahead of every real request are each rejected and dropped, while the
// real requests' slot streams stay byte-exact — no fallback, no hang.
func TestDoorbellStormKeepsStreamExact(t *testing.T) {
	fx, plan := newFaultFixture(t, core.Config{})
	defer fx.c.Close()
	content := data.Pattern{Seed: 71, Size: 1 << 20}
	fx.write(t, "/f", content)
	plan.Set(faults.Rule{Point: faults.RingDoorbellStorm, Prob: 1})

	fx.run(t, 240*time.Second, "reader", func(p *sim.Proc) {
		r, err := fx.cl.Open(p, "/f")
		if err != nil {
			t.Error(err)
			return
		}
		defer r.Close(p)
		got, err := r.ReadFull(p, content.Size)
		if err != nil || !data.Equal(got, data.NewSlice(content)) {
			t.Errorf("read under doorbell storm: %v", err)
		}
	})
	burst := int64(core.DoorbellStormBurst)
	st := fx.mgr.Daemon("client").Stats()
	if want := plan.Fired(faults.RingDoorbellStorm) * burst; st.RingRejects != want {
		t.Fatalf("ring rejects = %d, want %d (one per junk descriptor)", st.RingRejects, want)
	}
	if fx.lib.Stats().Retries != 0 {
		t.Fatal("storm corrupted a real request's stream")
	}
	if fx.dn1.ServedBytes() != 0 {
		t.Fatal("storm caused a vanilla fallback")
	}
}

// TestSlotHeldOnlyAddsLatency: a guest holding the slot spinlock burns daemon
// CPU and stalls the fill, but the read still completes with correct bytes.
func TestSlotHeldOnlyAddsLatency(t *testing.T) {
	fx, plan := newFaultFixture(t, core.Config{})
	defer fx.c.Close()
	content := data.Pattern{Seed: 81, Size: 1 << 20}
	fx.write(t, "/f", content)
	plan.Set(faults.Rule{Point: faults.RingSlotHeld, Prob: 1, Delay: 2 * time.Millisecond})

	start := fx.c.Env.Now()
	fx.run(t, 240*time.Second, "reader", func(p *sim.Proc) {
		r, err := fx.cl.Open(p, "/f")
		if err != nil {
			t.Error(err)
			return
		}
		defer r.Close(p)
		got, err := r.ReadFull(p, content.Size)
		if err != nil || !data.Equal(got, data.NewSlice(content)) {
			t.Errorf("read under held slots: %v", err)
		}
	})
	fired := plan.Fired(faults.RingSlotHeld)
	if fired == 0 {
		t.Fatal("slot-held never fired")
	}
	if elapsed := fx.c.Env.Now() - start; elapsed < time.Duration(fired)*2*time.Millisecond {
		t.Fatalf("elapsed %v under %d held slots: holds not paid", elapsed, fired)
	}
	if fx.dn1.ServedBytes() != 0 {
		t.Fatal("held slot caused a vanilla fallback")
	}
}

// TestPersistentForgeryRevokesRing: with RingRevokeThreshold set, a streak of
// forged descriptors revokes the ring; the revoked guest gets ErrRingRevoked
// (not a retry loop), and its subsequent opens fall back to the vanilla
// socket path — degraded, still correct.
func TestPersistentForgeryRevokesRing(t *testing.T) {
	fx, plan := newFaultFixture(t, core.Config{RingRevokeThreshold: 3})
	defer fx.c.Close()
	content := data.Pattern{Seed: 91, Size: 1 << 20}
	fx.write(t, "/f", content)
	plan.Set(faults.Rule{Point: faults.RingBadSlot, Prob: 1, AfterN: 1, MaxFires: 3})

	tracer := trace.NewTracer(fx.c.Env, 1)
	var tr *trace.Trace
	fx.run(t, 240*time.Second, "reader", func(p *sim.Proc) {
		tr = tracer.Request("revoked-read")
		vfd, ok := fx.lib.OpenPath(p, tr, "dn1", hdfs.BlockPath(1), "blk_1")
		if !ok {
			t.Error("open failed before the forgery window")
			return
		}
		_, err := vfd.ReadAt(p, tr, 0, content.Size)
		vfd.Close(p, tr)
		tr.Finish(0)
		if !errors.Is(err, core.ErrRingRevoked) {
			t.Errorf("err = %v, want ErrRingRevoked", err)
		}
	})
	d := fx.mgr.Daemon("client")
	if d.RingState() != "revoked" {
		t.Fatalf("ring state = %q, want revoked", d.RingState())
	}
	if st := d.Stats(); st.Revocations != 1 {
		t.Fatalf("revocations = %d, want 1", st.Revocations)
	}
	assertSpansBalanced(t, tr)

	// The revocation is sticky: a fresh, well-formed read is denied at the
	// ring and served by the datanode process instead.
	fx.run(t, 240*time.Second, "reader2", func(p *sim.Proc) {
		r, err := fx.cl.Open(p, "/f")
		if err != nil {
			t.Error(err)
			return
		}
		defer r.Close(p)
		got, err := r.ReadFull(p, content.Size)
		if err != nil || !data.Equal(got, data.NewSlice(content)) {
			t.Errorf("fallback read after revocation: %v", err)
		}
	})
	if d.RingState() != "revoked" {
		t.Fatal("revocation did not stick")
	}
	if fx.dn1.ServedBytes() != content.Size {
		t.Fatalf("datanode streamed %d bytes, want full %d via fallback", fx.dn1.ServedBytes(), content.Size)
	}
}

// TestRingSnapshotRestoreRoundTrip: descriptors submitted while the ring is
// quiesced are captured, the guest blocks (no error), and the restore rotates
// the key and replays them to correct bytes.
func TestRingSnapshotRestoreRoundTrip(t *testing.T) {
	fx := newFixture(t, hdfs.Config{}, core.Config{})
	defer fx.c.Close()
	content := data.Pattern{Seed: 101, Size: 1 << 20}
	fx.write(t, "/f", content)

	d := fx.mgr.Daemon("client")
	key0 := d.RingKey()
	readDone := false
	fx.c.Go("reader", func(p *sim.Proc) {
		p.Sleep(time.Millisecond) // after the snapshot below
		r, err := fx.cl.Open(p, "/f")
		if err != nil {
			t.Error(err)
			return
		}
		defer r.Close(p)
		got, err := r.ReadFull(p, content.Size)
		if err != nil {
			t.Error(err)
			return
		}
		if !data.Equal(got, data.NewSlice(content)) {
			t.Error("bytes corrupted across quiesce/restore")
		}
		readDone = true
	})
	fx.run(t, 240*time.Second, "driver", func(p *sim.Proc) {
		snap, err := fx.mgr.RingSnapshot(p, "client")
		if err != nil {
			t.Fatal(err)
		}
		if d.RingState() != "quiesced" {
			t.Fatalf("ring state = %q after snapshot", d.RingState())
		}
		p.Sleep(10 * time.Millisecond) // let the reader block on the quiesced ring
		if readDone {
			t.Fatal("read completed against a quiesced ring")
		}
		if st := d.Stats(); st.QuiesceHolds == 0 {
			t.Fatal("no descriptors captured while quiesced")
		}
		if err := fx.mgr.RingRestore(p, snap); err != nil {
			t.Fatal(err)
		}
		if d.RingState() != "attached" {
			t.Fatalf("ring state = %q after restore", d.RingState())
		}
	})
	if !readDone {
		t.Fatal("captured read never completed after restore")
	}
	if d.RingKey() == key0 {
		t.Fatal("restore did not rotate the ring key")
	}
	if st := d.Stats(); st.Replayed == 0 {
		t.Fatal("no captured descriptors replayed")
	}
}

// TestRingSnapshotRestoreValidation pins the protocol's refusal paths.
func TestRingSnapshotRestoreValidation(t *testing.T) {
	fx := newFixture(t, hdfs.Config{}, core.Config{})
	defer fx.c.Close()
	fx.run(t, 120*time.Second, "driver", func(p *sim.Proc) {
		if _, err := fx.mgr.RingSnapshot(p, "nobody"); err == nil {
			t.Error("snapshot of unknown VM succeeded")
		}
		if err := fx.mgr.RingRestore(p, nil); err == nil {
			t.Error("restore of nil snapshot succeeded")
		}
		snap, err := fx.mgr.RingSnapshot(p, "client")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fx.mgr.RingSnapshot(p, "client"); err == nil {
			t.Error("double snapshot succeeded")
		}
		if err := fx.mgr.RingRestore(p, snap); err != nil {
			t.Fatal(err)
		}
		if err := fx.mgr.RingRestore(p, snap); err == nil {
			t.Error("restore of an already-restored ring succeeded")
		}
		// A spent snapshot must not restore a later quiesce: the epochs no
		// longer match.
		if _, err := fx.mgr.RingSnapshot(p, "client"); err != nil {
			t.Fatal(err)
		}
		if err := fx.mgr.RingRestore(p, snap); err == nil {
			t.Error("stale-epoch snapshot restored a newer quiesce")
		}
	})
}

// TestMigrateMountReplaysInFlightRead: a read in flight across a live mount
// migration blocks through the blackout and completes with correct bytes on
// the target host — the migration is latency, never an error.
func TestMigrateMountReplaysInFlightRead(t *testing.T) {
	fx := newFixture(t, hdfs.Config{}, core.Config{})
	defer fx.c.Close()
	fx.nn.SetPlacementPolicy(func(string, string, int) []string { return []string{"dn1"} })
	content := data.Pattern{Seed: 111, Size: 4 << 20}
	fx.write(t, "/f", content)

	readDone := false
	fx.c.Go("reader", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		r, err := fx.cl.Open(p, "/f")
		if err != nil {
			t.Error(err)
			return
		}
		defer r.Close(p)
		got, err := r.ReadFull(p, content.Size)
		if err != nil {
			t.Error(err)
			return
		}
		if !data.Equal(got, data.NewSlice(content)) {
			t.Error("bytes corrupted across mount migration")
		}
		readDone = true
	})
	var mig core.MountMigration
	fx.run(t, 240*time.Second, "driver", func(p *sim.Proc) {
		var err error
		mig, err = fx.mgr.MigrateMount(p, "dn1", "host1", "host2")
		if err != nil {
			t.Fatal(err)
		}
	})
	if !readDone {
		t.Fatal("in-flight read never completed after migration")
	}
	if mig.Quiesced != 1 {
		t.Errorf("quiesced %d rings, want 1", mig.Quiesced)
	}
	if mig.Blackout <= 0 {
		t.Errorf("blackout = %v, want > 0", mig.Blackout)
	}
	if fx.mgr.Mount("host2", "dn1") == nil {
		t.Fatal("dn1 not mounted on host2 after migration")
	}
	if fx.mgr.Mount("host1", "dn1") != nil {
		t.Fatal("dn1 still mounted on host1 after migration")
	}
	if vm := fx.c.VM("dn1"); vm.Host.Name != "host2" {
		t.Fatalf("dn1 VM on %q, want host2", vm.Host.Name)
	}
	if n := fx.mgr.PendingRemoteReads(); n != 0 {
		t.Fatalf("%d pending remote reads leaked across migration", n)
	}

	// Post-migration reads are remote (client on host1, mount on host2) and
	// still served by vRead, not the datanode socket path.
	fx.run(t, 240*time.Second, "reader2", func(p *sim.Proc) {
		r, err := fx.cl.Open(p, "/f")
		if err != nil {
			t.Error(err)
			return
		}
		defer r.Close(p)
		got, err := r.ReadFull(p, content.Size)
		if err != nil || !data.Equal(got, data.NewSlice(content)) {
			t.Errorf("post-migration read: %v", err)
		}
	})
	if st := fx.mgr.Daemon("client").Stats(); st.BytesRemote == 0 {
		t.Fatal("post-migration read did not take the remote path")
	}
	if fx.dn1.ServedBytes() != 0 {
		t.Fatal("migration pushed reads onto the vanilla fallback")
	}
}

// TestMigrateMountValidation pins the migration's refusal paths.
func TestMigrateMountValidation(t *testing.T) {
	fx := newFixture(t, hdfs.Config{}, core.Config{})
	defer fx.c.Close()
	fx.run(t, 120*time.Second, "driver", func(p *sim.Proc) {
		if _, err := fx.mgr.MigrateMount(p, "nobody", "host1", "host2"); err == nil {
			t.Error("migrating an unknown VM succeeded")
		}
		if _, err := fx.mgr.MigrateMount(p, "dn1", "host2", "host1"); err == nil {
			t.Error("migrating from the wrong source host succeeded")
		}
		if _, err := fx.mgr.MigrateMount(p, "dn1", "host1", "host1"); err == nil {
			t.Error("migrating to the source host succeeded")
		}
		if _, err := fx.mgr.MigrateMount(p, "dn1", "host1", "nowhere"); err == nil {
			t.Error("migrating to an unknown host succeeded")
		}
		fx.mgr.UnmountDatanode("host1", "dn1")
		if _, err := fx.mgr.MigrateMount(p, "dn1", "host1", "host2"); err == nil {
			t.Error("migrating an unmounted datanode succeeded")
		}
		fx.mgr.MountDatanode("dn1")
	})
}

// TestMaybeMigrateMountFaultpoint: the fault-plan action form — unarmed it is
// a no-op that draws no randomness; armed it performs the migration.
func TestMaybeMigrateMountFaultpoint(t *testing.T) {
	fx, plan := newFaultFixture(t, core.Config{})
	defer fx.c.Close()
	fx.run(t, 240*time.Second, "driver", func(p *sim.Proc) {
		if _, fired, _ := fx.mgr.MaybeMigrateMount(p, "dn1", "host2"); fired {
			t.Fatal("unarmed mount.migrate fired")
		}
		plan.Set(faults.Rule{Point: faults.MountMigrate, Prob: 1, MaxFires: 1})
		mig, fired, err := fx.mgr.MaybeMigrateMount(p, "dn1", "host2")
		if !fired {
			t.Fatal("armed mount.migrate did not fire")
		}
		if err != nil {
			t.Fatal(err)
		}
		if mig.SrcHost != "host1" || mig.DstHost != "host2" {
			t.Fatalf("migration %q -> %q, want host1 -> host2", mig.SrcHost, mig.DstHost)
		}
		// Already on the target: the firing is reported, nothing moves.
		plan.Set(faults.Rule{Point: faults.MountMigrate, Prob: 1})
		mig, fired, err = fx.mgr.MaybeMigrateMount(p, "dn1", "host2")
		if !fired || err != nil {
			t.Fatalf("no-op migration: fired=%v err=%v", fired, err)
		}
		if mig.SrcHost != "host2" || mig.Quiesced != 0 {
			t.Fatalf("no-op migration quiesced %d rings from %q", mig.Quiesced, mig.SrcHost)
		}
	})
	if fx.mgr.Mount("host2", "dn1") == nil {
		t.Fatal("dn1 not mounted on host2")
	}
}

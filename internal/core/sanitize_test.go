package core

import (
	"strings"
	"testing"

	"vread/internal/sim"
)

// White-box tests for the daemon-side descriptor sanitizer: every rejection
// arm, as a table. The liveness half — a guest blocked on a rejected
// descriptor still gets a reply or an error slot — is covered black-box in
// ring_isolation_test.go; this table pins the verdicts themselves.

func sanitizeFixture() (*Daemon, *sim.Env) {
	env := sim.NewEnv(1)
	cfg := Config{}.WithDefaults()
	return &Daemon{cfg: cfg, ring: newRing(env, cfg, "vm1")}, env
}

func TestSanitizeReqVerdicts(t *testing.T) {
	d, env := sanitizeFixture()
	key := d.ring.key
	reply := sim.NewQueue[openResult](env, 0)
	longName := strings.Repeat("x", maxRingNameBytes+1)

	cases := []struct {
		name string
		req  ringReq
		want reqVerdict
	}{
		{"read ok", ringReq{kind: reqRead, dn: "dn1", path: "/b", off: 0, n: 4096, key: key}, reqAccept},
		{"open ok", ringReq{kind: reqOpen, dn: "dn1", path: "/b", key: key, reply: reply}, reqAccept},
		{"zero-length read ok", ringReq{kind: reqRead, dn: "dn1", path: "/b", key: key}, reqAccept},
		{"unknown opcode", ringReq{kind: ringReqKind(99), dn: "dn1", path: "/b", key: key}, reqMalformed},
		{"resume opcode from guest", ringReq{kind: reqResume, dn: "dn1", path: "/b", key: key}, reqMalformed},
		{"open without reply", ringReq{kind: reqOpen, dn: "dn1", path: "/b", key: key}, reqMalformed},
		{"empty datanode", ringReq{kind: reqRead, dn: "", path: "/b", key: key}, reqMalformed},
		{"oversized datanode", ringReq{kind: reqRead, dn: longName, path: "/b", key: key}, reqMalformed},
		{"empty path", ringReq{kind: reqRead, dn: "dn1", path: "", key: key}, reqMalformed},
		{"oversized path", ringReq{kind: reqRead, dn: "dn1", path: longName, key: key}, reqMalformed},
		{"negative offset", ringReq{kind: reqRead, dn: "dn1", path: "/b", off: -1, n: 1, key: key}, reqMalformed},
		{"negative length", ringReq{kind: reqRead, dn: "dn1", path: "/b", off: 0, n: -1, key: key}, reqMalformed},
		{"overflowing range", ringReq{kind: reqRead, dn: "dn1", path: "/b", off: 1 << 62, n: 1 << 62, key: key}, reqMalformed},
		{"zero key", ringReq{kind: reqRead, dn: "dn1", path: "/b", key: 0}, reqStaleKey},
		{"previous-epoch key", ringReq{kind: reqRead, dn: "dn1", path: "/b", key: mintRingKey("vm1", 0)}, reqStaleKey},
		{"other VM's key", ringReq{kind: reqRead, dn: "dn1", path: "/b", key: mintRingKey("vm2", 1)}, reqStaleKey},
	}
	for _, c := range cases {
		if _, got := d.sanitizeReq(c.req); got != c.want {
			t.Errorf("%s: verdict = %d, want %d", c.name, got, c.want)
		}
	}

	// Stale key outranks shape: a malformed descriptor with a dead key is a
	// key failure (the guest must re-attach before its shape matters).
	if _, got := d.sanitizeReq(ringReq{kind: ringReqKind(99), key: 0}); got != reqStaleKey {
		t.Errorf("stale key + malformed: verdict = %d, want reqStaleKey", got)
	}

	// Revocation outranks everything, including a perfectly valid read.
	d.ring.state = ringRevoked
	if _, got := d.sanitizeReq(ringReq{kind: reqRead, dn: "dn1", path: "/b", n: 1, key: key}); got != reqDenied {
		t.Errorf("revoked ring: verdict = %d, want reqDenied", got)
	}
}

func TestMintRingKey(t *testing.T) {
	if mintRingKey("vm1", 1) == 0 {
		t.Fatal("ring key minted as 0 (the unkeyed sentinel)")
	}
	if mintRingKey("vm1", 1) != mintRingKey("vm1", 1) {
		t.Fatal("ring key not deterministic for (vm, epoch)")
	}
	if mintRingKey("vm1", 1) == mintRingKey("vm1", 2) {
		t.Fatal("ring key did not change across epochs")
	}
	if mintRingKey("vm1", 1) == mintRingKey("vm2", 1) {
		t.Fatal("two VMs minted the same ring key at the same epoch")
	}
}

func TestRotateKeyAdvancesEpoch(t *testing.T) {
	env := sim.NewEnv(1)
	r := newRing(env, Config{}.WithDefaults(), "vm1")
	k1, e1 := r.key, r.epoch
	r.rotateKey()
	if r.epoch != e1+1 {
		t.Fatalf("epoch = %d after rotate, want %d", r.epoch, e1+1)
	}
	if r.key == k1 || r.key == 0 {
		t.Fatalf("rotated key = %#x (old %#x)", r.key, k1)
	}
	if r.key != mintRingKey("vm1", r.epoch) {
		t.Fatal("rotated key does not match mint for the new epoch")
	}
}

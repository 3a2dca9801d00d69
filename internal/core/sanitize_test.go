package core

import (
	"math"
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

// FuzzSanitizeReq feeds the daemon's descriptor check a ring state, an
// opcode, a key (the ring's own or a fuzzed one), a reply queue or none,
// datanode and path name lengths, and a byte range. No input may panic; the
// verdict must be the one the rules in sanitizeReq's doc comment give, each
// rejection one of the typed verdicts; and an accepted descriptor comes back
// unchanged, with off and n non-negative and off+n not overflowing.
func FuzzSanitizeReq(f *testing.F) {
	f.Add(uint8(ringAttached), int64(reqRead), true, uint64(0), false, uint16(3), uint16(2), int64(0), int64(4096))
	f.Add(uint8(ringAttached), int64(reqOpen), true, uint64(0), false, uint16(3), uint16(2), int64(0), int64(0))
	f.Add(uint8(ringRevoked), int64(reqRead), true, uint64(0), false, uint16(3), uint16(2), int64(0), int64(1))
	f.Add(uint8(ringAttached), int64(reqRead), true, uint64(0), false, uint16(maxRingNameBytes+1), uint16(2), int64(0), int64(1))
	f.Add(uint8(ringAttached), int64(reqRead), true, uint64(0), false, uint16(3), uint16(2), int64(math.MaxInt64), int64(1))

	d, env := sanitizeFixture()
	defer env.Close()
	reply := sim.NewQueue[openResult](env, 0)
	f.Fuzz(func(t *testing.T, state uint8, kind int64, ringKey bool, key uint64, withReply bool,
		dnLen, pathLen uint16, off, n int64) {
		d.ring.state = ringState(state % 3)
		if ringKey {
			key = d.ring.key
		}
		req := ringReq{kind: ringReqKind(kind), dn: strings.Repeat("d", int(dnLen)),
			path: strings.Repeat("p", int(pathLen)), off: off, n: n, key: key}
		if withReply {
			req.reply = reply
		}
		validName := func(l uint16) bool { return l > 0 && l <= maxRingNameBytes }
		want := reqAccept
		switch {
		case d.ring.state == ringRevoked:
			want = reqDenied
		case key != d.ring.key:
			want = reqStaleKey
		case req.kind != reqOpen && req.kind != reqRead,
			req.kind == reqOpen && !withReply,
			!validName(dnLen) || !validName(pathLen),
			off < 0 || n < 0 || off > math.MaxInt64-n:
			want = reqMalformed
		}
		out, got := d.sanitizeReq(req)
		if got != want {
			t.Fatalf("sanitizeReq(%+v) on a %s ring = verdict %d, want %d", req, d.ring.state, got, want)
		}
		if got != reqAccept {
			return
		}
		if out.off < 0 || out.n < 0 || out.off > math.MaxInt64-out.n {
			t.Fatalf("accepted range off %d n %d is negative or overflows", out.off, out.n)
		}
		if out != req {
			t.Fatalf("accepted descriptor rewritten: %+v, sent %+v", out, req)
		}
	})
}

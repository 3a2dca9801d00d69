package data

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

// oracleByte is the pattern formula as first written: one full splitmix64
// mix of the seed and the 8-byte lane index per byte, keeping byte off&7.
// Pattern.ReadAt must produce exactly these bytes however it computes them.
func oracleByte(seed uint64, off int64) byte {
	lane := uint64(off >> 3)
	x := seed + 0x9e3779b97f4a7c15*(lane+1)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return byte(x >> (8 * uint(off&7)))
}

// checkOracle fails t unless Pattern{seed}.ReadAt of [off, off+n) matches
// oracleByte byte for byte.
func checkOracle(t *testing.T, seed uint64, off, n int64) {
	t.Helper()
	p := Pattern{Seed: seed, Size: off + n}
	got := make([]byte, n)
	p.ReadAt(got, off)
	for i, v := range got {
		if want := oracleByte(seed, off+int64(i)); v != want {
			t.Fatalf("seed=%d off=%d n=%d: byte %d = %#x, oracle %#x", seed, off, n, i, v, want)
		}
	}
}

func TestPatternMatchesOracle(t *testing.T) {
	for _, seed := range []uint64{0, 1, 12345, math.MaxUint64} {
		for head := int64(0); head < 8; head++ {
			for n := int64(0); n <= 70; n++ {
				checkOracle(t, seed, 64+head, n)
			}
		}
		checkOracle(t, seed, 3, 64<<10)
	}
}

func TestPatternReadAtZeroAlloc(t *testing.T) {
	p := Pattern{Seed: 9, Size: 1 << 20}
	buf := make([]byte, 4099)
	if n := testing.AllocsPerRun(100, func() { p.ReadAt(buf, 5) }); n != 0 {
		t.Fatalf("Pattern.ReadAt: %v allocs/op, want 0", n)
	}
}

func TestBytesContent(t *testing.T) {
	c := Bytes("hello world")
	if c.Len() != 11 {
		t.Fatalf("Len = %d", c.Len())
	}
	b := make([]byte, 5)
	c.ReadAt(b, 6)
	if string(b) != "world" {
		t.Fatalf("ReadAt = %q", b)
	}
}

func TestPatternDeterministic(t *testing.T) {
	p1 := Pattern{Seed: 42, Size: 1024}
	p2 := Pattern{Seed: 42, Size: 1024}
	a := make([]byte, 1024)
	b := make([]byte, 1024)
	p1.ReadAt(a, 0)
	p2.ReadAt(b, 0)
	if !bytes.Equal(a, b) {
		t.Fatal("same-seed patterns differ")
	}
	p3 := Pattern{Seed: 43, Size: 1024}
	p3.ReadAt(b, 0)
	if bytes.Equal(a, b) {
		t.Fatal("different-seed patterns identical")
	}
}

func TestPatternOffsetConsistency(t *testing.T) {
	// Reading [100,200) in one call equals reading it byte by byte.
	p := Pattern{Seed: 7, Size: 1 << 20}
	whole := make([]byte, 100)
	p.ReadAt(whole, 100)
	for i := 0; i < 100; i++ {
		one := make([]byte, 1)
		p.ReadAt(one, 100+int64(i))
		if one[0] != whole[i] {
			t.Fatalf("byte %d differs: %x vs %x", i, one[0], whole[i])
		}
	}
}

func TestZero(t *testing.T) {
	z := Zero(16)
	b := []byte{1, 2, 3, 4}
	z.ReadAt(b, 4)
	for _, v := range b {
		if v != 0 {
			t.Fatal("Zero content returned nonzero")
		}
	}
}

func TestConcat(t *testing.T) {
	c := Concat{NewSlice(Bytes("abc")), NewSlice(Bytes("de")), NewSlice(Bytes("fghi"))}
	if c.Len() != 9 {
		t.Fatalf("Len = %d", c.Len())
	}
	b := make([]byte, 9)
	c.ReadAt(b, 0)
	if string(b) != "abcdefghi" {
		t.Fatalf("full read = %q", b)
	}
	// Cross-boundary read.
	b = make([]byte, 4)
	c.ReadAt(b, 2)
	if string(b) != "cdef" {
		t.Fatalf("cross read = %q", b)
	}
}

func TestSliceSubAndBytes(t *testing.T) {
	s := NewSlice(Bytes("0123456789"))
	sub := s.Sub(3, 4)
	if got := string(sub.Bytes()); got != "3456" {
		t.Fatalf("Sub bytes = %q", got)
	}
	subsub := sub.Sub(1, 2)
	if got := string(subsub.Bytes()); got != "45" {
		t.Fatalf("nested Sub = %q", got)
	}
}

func TestSliceSubOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSlice(Bytes("abc")).Sub(1, 3)
}

func TestEqual(t *testing.T) {
	a := NewSlice(Pattern{Seed: 5, Size: 200_000})
	b := NewSlice(Pattern{Seed: 5, Size: 200_000})
	if !Equal(a, b) {
		t.Fatal("identical patterns not Equal")
	}
	c := NewSlice(Pattern{Seed: 6, Size: 200_000})
	if Equal(a, c) {
		t.Fatal("different patterns Equal")
	}
	if Equal(a, a.Sub(0, 100)) {
		t.Fatal("different lengths Equal")
	}
}

// TestEqualPaths pins which path decides each shape that FuzzEqual's
// committed seeds aim at, and a split Zero: the window lists (identity) or
// the byte fallback.
func TestEqualPaths(t *testing.T) {
	sevens := bytes.Repeat([]byte{7}, 40)
	for _, tc := range []struct {
		name                string
		zero                bool
		formA, formB        uint8
		cutsA, cutsB        []byte
		shift               int64
		flip                int16
		identity, wantEqual bool
	}{
		{name: "split at other boundaries", formB: 4, cutsA: []byte{200, 255, 17}, cutsB: []byte{50, 0, 255, 255}, flip: -1, identity: true, wantEqual: true},
		{name: "shifted offset", shift: 8, flip: -1},
		{name: "shifted last run", cutsB: []byte{100}, shift: 50, flip: -1},
		{name: "resized leaf", formB: 1, cutsB: []byte{128, 128}, flip: -1, wantEqual: true},
		{name: "Zero against zero Bytes", zero: true, formB: 2, flip: -1, wantEqual: true},
		{name: "flipped Bytes copy", formB: 2, flip: 700},
		{name: "runs past the budget", formB: 3, cutsB: sevens, flip: -1, wantEqual: true},
		{name: "Zero split at other boundaries", zero: true, cutsA: []byte{9}, formB: 4, cutsB: []byte{200}, flip: -1, identity: true, wantEqual: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base, resized := Content(Pattern{Seed: 9, Size: 4 << 10}), Content(Pattern{Seed: 9, Size: 4<<10 + 8})
			if tc.zero {
				base, resized = Zero(4<<10), Zero(4<<10+8)
			}
			a := equalSide(base, resized, 64, 3000, tc.formA, tc.cutsA, 0, -1)
			b := equalSide(base, resized, 64, 3000, tc.formB, tc.cutsB, tc.shift, tc.flip)
			if got := sameRuns(a, b); got != tc.identity {
				t.Errorf("sameRuns = %v, want %v", got, tc.identity)
			}
			if got := Equal(a, b); got != tc.wantEqual {
				t.Errorf("Equal = %v, want %v", got, tc.wantEqual)
			}
			if want := bytes.Equal(a.Bytes(), b.Bytes()); want != tc.wantEqual {
				t.Errorf("bytes.Equal = %v, case expects %v", want, tc.wantEqual)
			}
		})
	}
}

// TestEqualAllocs pins Equal's allocation contract: none on the identity
// path, at most the one fallback buffer otherwise, none for unequal lengths.
// The identity case is the shape a storm read compares: the written Pattern
// against the file's 4-part Concat of 64 KiB windows.
func TestEqualAllocs(t *testing.T) {
	const part = 64 << 10
	p := Pattern{Seed: 11, Size: 4 * part}
	a := NewSlice(p)
	var parts Concat
	for i := int64(0); i < 4; i++ {
		parts = append(parts, a.Sub(i*part, part))
	}
	b := NewSlice(parts)
	if !sameRuns(a, b) {
		t.Fatal("Pattern and its 4-part Concat do not list the same windows")
	}
	if n := testing.AllocsPerRun(20, func() {
		if !Equal(a, b) {
			t.Fatal("Pattern and its 4-part Concat not Equal")
		}
	}); n != 0 {
		t.Errorf("Equal by identity: %v allocs/op, want 0", n)
	}
	raw := NewSlice(Bytes(a.Sub(0, part).Bytes()))
	if n := testing.AllocsPerRun(20, func() {
		if !Equal(a.Sub(0, part), raw) {
			t.Fatal("Pattern and its Bytes copy not Equal")
		}
	}); n > 1 {
		t.Errorf("Equal by bytes: %v allocs/op, want <= 1", n)
	}
	short := a.Sub(0, 100)
	if n := testing.AllocsPerRun(20, func() {
		if Equal(a, short) {
			t.Fatal("different lengths Equal")
		}
	}); n != 0 {
		t.Errorf("Equal with differing lengths: %v allocs/op, want 0", n)
	}
}

// Property: any Sub window of a Concat matches the same window of the
// materialized whole.
func TestConcatWindowProperty(t *testing.T) {
	f := func(parts [][]byte, offRaw, nRaw uint16) bool {
		var c Concat
		var whole []byte
		for _, p := range parts {
			c = append(c, NewSlice(Bytes(p)))
			whole = append(whole, p...)
		}
		total := int64(len(whole))
		if total == 0 {
			return true
		}
		off := int64(offRaw) % total
		n := int64(nRaw) % (total - off + 1)
		got := NewSlice(c).Sub(off, n).Bytes()
		return bytes.Equal(got, whole[off:off+n])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Pattern reads are window-consistent for arbitrary windows.
func TestPatternWindowProperty(t *testing.T) {
	f := func(seed uint64, offRaw, nRaw uint16) bool {
		p := Pattern{Seed: seed, Size: 1 << 18}
		off := int64(offRaw)
		n := int64(nRaw)
		if off+n > p.Size {
			return true
		}
		whole := make([]byte, n)
		p.ReadAt(whole, off)
		half := n / 2
		a := make([]byte, half)
		b := make([]byte, n-half)
		p.ReadAt(a, off)
		p.ReadAt(b, off+half)
		return bytes.Equal(whole, append(a, b...))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

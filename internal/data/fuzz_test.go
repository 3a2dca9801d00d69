package data

import (
	"bytes"
	"testing"
)

// FuzzPatternWindowConsistency: any two ways of materializing the same
// window of a Pattern agree byte for byte, and with the per-byte oracle.
func FuzzPatternWindowConsistency(f *testing.F) {
	f.Add(uint64(1), int64(0), int64(100))
	f.Add(uint64(999), int64(7), int64(4096))
	f.Add(uint64(0), int64(63), int64(1))
	f.Fuzz(func(t *testing.T, seed uint64, off, n int64) {
		const size = 1 << 16
		if off < 0 || n < 0 || n > size || off > size-n {
			t.Skip()
		}
		p := Pattern{Seed: seed, Size: size}
		whole := make([]byte, n)
		p.ReadAt(whole, off)
		via := NewSlice(p).Sub(off, n).Bytes()
		if !bytes.Equal(whole, via) {
			t.Fatalf("direct and Slice reads differ for seed=%d off=%d n=%d", seed, off, n)
		}
		for i, v := range whole {
			if want := oracleByte(seed, off+int64(i)); v != want {
				t.Fatalf("seed=%d off=%d n=%d: byte %d = %#x, oracle %#x", seed, off, n, i, v, want)
			}
		}
	})
}

// FuzzEqual: Equal agrees with bytes.Equal of the materialized windows. Side
// a is a Pattern window, optionally split into a two-part Concat at cut; side
// b is a literal copy of it, split at cut too, with one byte flipped (flip >=
// 0) and its length changed by delta. The seeds straddle Equal's 512-byte
// chunk edges: a difference in the last byte, and lengths one off.
func FuzzEqual(f *testing.F) {
	f.Add(uint64(1), uint16(0), uint16(1024), uint16(0), int16(1023), int8(0), false)
	f.Add(uint64(2), uint16(3), uint16(513), uint16(512), int16(512), int8(0), true)
	f.Add(uint64(3), uint16(8), uint16(1536), uint16(511), int16(-1), int8(0), true)
	f.Add(uint64(4), uint16(0), uint16(512), uint16(100), int16(-1), int8(1), false)
	f.Add(uint64(5), uint16(7), uint16(1000), uint16(999), int16(-1), int8(-1), true)
	f.Add(uint64(6), uint16(0), uint16(0), uint16(0), int16(-1), int8(0), false)
	f.Fuzz(func(t *testing.T, seed uint64, off, n, cut uint16, flip int16, delta int8, splitA bool) {
		const size = 4 << 10
		o := int64(off) % size
		l := int64(n) % (size - o + 1)
		c := int64(cut) % (l + 1)
		pw := NewSlice(Pattern{Seed: seed, Size: size}).Sub(o, l)
		a := pw
		if splitA {
			a = NewSlice(Concat{pw.Sub(0, c).Content(), pw.Sub(c, l-c).Content()})
		}
		raw := pw.Bytes()
		if flip >= 0 && l > 0 {
			raw[int64(flip)%l] ^= 1
		}
		if delta < 0 {
			raw = raw[:max(0, len(raw)+int(delta))]
		} else {
			raw = append(raw, make([]byte, delta)...)
		}
		bc := min(c, int64(len(raw)))
		b := NewSlice(Concat{Bytes(raw[:bc]), Bytes(raw[bc:])})
		want := bytes.Equal(a.Bytes(), b.Bytes())
		if got := Equal(a, b); got != want {
			t.Fatalf("Equal(a, b) = %v, bytes.Equal = %v (off=%d n=%d cut=%d flip=%d delta=%d)", got, want, o, l, c, flip, delta)
		}
		if got := Equal(b, a); got != want {
			t.Fatalf("Equal(b, a) = %v, bytes.Equal = %v", got, want)
		}
	})
}

// FuzzConcatSplit: splitting content at an arbitrary point and
// concatenating the halves is identity.
func FuzzConcatSplit(f *testing.F) {
	f.Add([]byte("hello world"), 3)
	f.Add([]byte{}, 0)
	f.Add([]byte{1}, 1)
	f.Fuzz(func(t *testing.T, b []byte, cut int) {
		if cut < 0 || cut > len(b) {
			t.Skip()
		}
		c := Concat{Bytes(append([]byte(nil), b[:cut]...)), Bytes(append([]byte(nil), b[cut:]...))}
		if c.Len() != int64(len(b)) {
			t.Fatalf("Len = %d, want %d", c.Len(), len(b))
		}
		got := NewSlice(c).Bytes()
		if !bytes.Equal(got, b) {
			t.Fatalf("split/concat not identity")
		}
	})
}

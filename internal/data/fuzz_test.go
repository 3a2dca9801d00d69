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

// FuzzEqual: Equal agrees with bytes.Equal of the materialized windows. Both
// sides spell the window [off, off+n) of one 4 KiB base leaf (a Pattern, or a
// Zero when zero is set) in a form chosen by formA and formB; see equalSide.
// Side b's window is delta bytes longer, the last of its pieces is read shift
// bytes further into its leaf, and flip flips one byte of a Bytes form. The
// f.Add seeds straddle the fallback's 512-byte chunk edges; the seeds in
// testdata/fuzz/FuzzEqual aim at the identity path: one window split
// differently on each side, a shifted offset, a resized leaf, Zero against
// zero Bytes, a flipped copy and more runs than maxRuns.
func FuzzEqual(f *testing.F) {
	f.Add(uint64(1), false, uint16(0), uint16(1024), uint8(0), []byte(nil), uint8(2), []byte(nil), int16(0), int16(1023), int8(0))
	f.Add(uint64(2), false, uint16(3), uint16(513), uint8(2), []byte{255, 255}, uint8(2), []byte{255, 255, 2}, int16(0), int16(512), int8(0))
	f.Add(uint64(3), false, uint16(8), uint16(1536), uint8(0), []byte{255}, uint8(2), []byte{255}, int16(0), int16(-1), int8(-1))
	f.Add(uint64(4), false, uint16(0), uint16(512), uint8(0), []byte(nil), uint8(2), []byte{100}, int16(0), int16(-1), int8(1))
	f.Add(uint64(5), false, uint16(7), uint16(1000), uint8(0), []byte{255, 255, 255}, uint8(0), []byte{255, 255, 255}, int16(0), int16(-1), int8(-1))
	f.Add(uint64(6), false, uint16(0), uint16(0), uint8(0), []byte(nil), uint8(2), []byte(nil), int16(0), int16(-1), int8(0))
	f.Fuzz(func(t *testing.T, seed uint64, zero bool, off, n uint16, formA uint8, cutsA []byte, formB uint8, cutsB []byte, shift, flip int16, delta int8) {
		const size = 4 << 10
		base, resized := Content(Pattern{Seed: seed, Size: size}), Content(Pattern{Seed: seed, Size: size + 8})
		if zero {
			base, resized = Zero(size), Zero(size+8)
		}
		o := int64(off) % size
		l := int64(n) % (size - o + 1)
		lb := min(max(l+int64(delta), 0), size-o)
		a := equalSide(base, resized, o, l, formA, cutsA, 0, -1)
		b := equalSide(base, resized, o, lb, formB, cutsB, int64(shift), flip)
		want := bytes.Equal(a.Bytes(), b.Bytes())
		if got := Equal(a, b); got != want {
			t.Fatalf("Equal(a, b) = %v, bytes.Equal = %v (off=%d n=%d forms=%d,%d shift=%d flip=%d delta=%d)", got, want, o, l, formA, formB, shift, flip, delta)
		}
		if got := Equal(b, a); got != want {
			t.Fatalf("Equal(b, a) = %v, bytes.Equal = %v", got, want)
		}
	})
}

// equalSide spells bytes [o, o+l) of base as a Concat of pieces. Each byte
// of cuts is the length of the next piece, as long as it fits; the rest of
// the window is the last piece, which is read shift bytes further into its
// leaf (clamped to the leaf). form%4 picks what each piece is:
//
//	0  a window of base;
//	1  a window of resized, whose bytes match base but whose descriptor does not;
//	2  a Bytes copy, with byte flip%l of the side flipped when flip >= 0;
//	3  windows alternating between base and resized, so runs never merge.
//
// form&4 wraps the Concat as a window over a Concat that also holds a
// leading Zero byte, so the walk descends Concat, Concat, Concat, window.
func equalSide(base, resized Content, o, l int64, form uint8, cuts []byte, shift int64, flip int16) Slice {
	var parts Concat
	for i, at := 0, int64(0); at < l; i++ {
		n, from := l-at, o+at
		if i < len(cuts) && int64(cuts[i]) < n {
			n = int64(cuts[i])
		} else {
			from = min(max(from+shift, 0), base.Len()-n)
		}
		leaf := base
		if form%4 == 1 || form%4 == 3 && i%2 == 1 {
			leaf = resized
		}
		piece := NewSlice(leaf).Sub(from, n)
		if form%4 == 2 {
			raw := piece.Bytes()
			if f := int64(flip); f >= 0 && f%l >= at && f%l < at+n {
				raw[f%l-at] ^= 1
			}
			parts = append(parts, NewSlice(Bytes(raw)))
		} else {
			parts = append(parts, piece)
		}
		at += n
	}
	if form&4 != 0 {
		inner := NewSlice(Concat{NewSlice(Zero(1)), NewSlice(parts)}).Sub(1, l)
		return NewSlice(Concat{inner})
	}
	return Slice{C: parts, N: l}
}

// FuzzConcatSplit: splitting content at an arbitrary point and
// concatenating the halves is identity. A Builder fed the pieces of one
// Bytes, Pattern or Concat content, cut at the fuzzed lengths in cuts, gives
// back one window of it; a piece of a twin content, which holds the same
// bytes but is not the same content, is never joined to it.
func FuzzConcatSplit(f *testing.F) {
	f.Add([]byte("hello world"), 3, []byte{2, 0, 5}, uint64(1))
	f.Add([]byte{}, 0, []byte{}, uint64(2))
	f.Add([]byte{1}, 1, []byte{1}, uint64(3))
	f.Fuzz(func(t *testing.T, b []byte, cut int, cuts []byte, seed uint64) {
		if cut < 0 || cut > len(b) {
			t.Skip()
		}
		c := Concat{NewSlice(Bytes(append([]byte(nil), b[:cut]...))), NewSlice(Bytes(append([]byte(nil), b[cut:]...)))}
		if c.Len() != int64(len(b)) {
			t.Fatalf("Len = %d, want %d", c.Len(), len(b))
		}
		got := NewSlice(c).Bytes()
		if !bytes.Equal(got, b) {
			t.Fatalf("split/concat not identity")
		}
		n, at := int64(len(b)), int64(cut)
		for _, tc := range []struct {
			name        string
			whole, twin Content
		}{
			{"Bytes", Bytes(b), Bytes(bytes.Clone(b))},
			{"Pattern", Pattern{Seed: seed, Size: n}, Pattern{Seed: seed, Size: n + 8}},
			{"Concat", c, append(Concat(nil), c...)},
		} {
			whole, twin := NewSlice(tc.whole), NewSlice(tc.twin)
			var one Builder
			for i, off := 0, int64(0); off < n; i++ {
				k := n - off
				if i < len(cuts) && int64(cuts[i]) < k {
					k = int64(cuts[i])
				}
				one.Add(whole.Sub(off, k))
				off += k
			}
			s := one.Slice()
			if one.Len() != n || !bytes.Equal(s.Bytes(), whole.Bytes()) {
				t.Fatalf("%s: Builder gave %d bytes that differ from the content's %d", tc.name, one.Len(), n)
			}
			if n > 0 && (s.Off != 0 || s.N != n || !sameContent(s.C, tc.whole)) {
				t.Fatalf("%s: pieces of one content did not join into one window", tc.name)
			}
			var mixed Builder
			mixed.Add(whole.Sub(0, at))
			mixed.Add(twin.Sub(at, n-at))
			s = mixed.Slice()
			if !bytes.Equal(s.Bytes(), whole.Bytes()) {
				t.Fatalf("%s: content and twin pieces differ from the content", tc.name)
			}
			if parts, ok := s.C.(Concat); 0 < at && at < n && (!ok || len(parts) != 2 || !sameContent(parts[1].C, tc.twin)) {
				t.Fatalf("%s: a piece of a twin content was joined", tc.name)
			}
		}
	})
}

// Package data provides the byte-content abstractions that flow through the
// simulated I/O stack.
//
// Every component moves Slices — references to Content plus an offset/length
// window — rather than materialized byte slices, so a simulated 5 GB DFSIO
// job does not memcpy 5 GB of real memory. Content is either literal bytes
// (tests verify end-to-end integrity with them) or a deterministic pattern
// keyed by a seed (benchmark payloads, still verifiable at any byte range).
//
// Byte checks are cheap enough to run on every read. Equal decides by
// identity where it can: it lists each side as windows over its leaves,
// and equal lists over Pattern and Zero leaves hold equal bytes, since
// content is immutable and a leaf's descriptor fixes its bytes.
// Everything else gets a full byte compare through one 1 KiB buffer, with
// Pattern generating one 8-byte lane per mix, so no check is weaker than
// comparing the bytes. A storm read is one run of the written Pattern on
// both sides, so its check produces no byte and allocates nothing.
//
// A Slice is a value and costs nothing to pass. One rule decides whether two
// windows join: a window continues another when it has the same content and
// starts where the other ends. A Builder reassembles a read under that rule,
// so pieces of one content come back as one window, and only windows that
// are not contiguous join in a Concat, boxed once as a Slice's Content.
package data

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// Content is an immutable, random-access byte source.
type Content interface {
	// Len returns the total length in bytes.
	Len() int64
	// ReadAt fills b with the bytes starting at off. It panics if the range
	// [off, off+len(b)) is outside the content; callers slice first.
	ReadAt(b []byte, off int64)
}

// Bytes is literal in-memory content.
type Bytes []byte

// Len implements Content.
func (c Bytes) Len() int64 { return int64(len(c)) }

// ReadAt implements Content.
func (c Bytes) ReadAt(b []byte, off int64) {
	copy(b, c[off:])
}

// Pattern is deterministic pseudo-random content of a given size, generated
// from a seed. Two Patterns with the same seed and size are byte-identical,
// so integrity can be checked without storing the payload.
type Pattern struct {
	Seed uint64
	Size int64
}

// Len implements Content.
func (p Pattern) Len() int64 { return p.Size }

// ReadAt implements Content. Each 8-byte lane is one mix stored
// little-endian: aligned lanes straight into b, the unaligned head and tail
// through a lane on the stack.
//
//lint:hotpath
func (p Pattern) ReadAt(b []byte, off int64) {
	if off&7 != 0 && len(b) > 0 {
		n := p.readLane(b, off)
		b, off = b[n:], off+int64(n)
	}
	lane := uint64(off >> 3)
	for ; len(b) >= 8; lane++ {
		binary.LittleEndian.PutUint64(b, p.mix(lane))
		b = b[8:]
	}
	if len(b) > 0 {
		p.readLane(b, int64(lane<<3))
	}
}

// readLane copies the pattern bytes from off to the end of off's lane into
// b, as many as fit, and returns how many it copied.
func (p Pattern) readLane(b []byte, off int64) int {
	var lane [8]byte
	binary.LittleEndian.PutUint64(lane[:], p.mix(uint64(off>>3)))
	return copy(b, lane[off&7:])
}

// mix returns the 8 pattern bytes of a lane: a splitmix64 mix of the seed
// and the 8-byte lane index.
func (p Pattern) mix(lane uint64) uint64 {
	x := p.Seed + 0x9e3779b97f4a7c15*(lane+1)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Zero is all-zero content of a given size.
type Zero int64

// Len implements Content.
func (z Zero) Len() int64 { return int64(z) }

// ReadAt implements Content.
func (z Zero) ReadAt(b []byte, off int64) {
	for i := range b {
		b[i] = 0
	}
}

// Concat is the concatenation of several windows (how append-only files
// accumulate chunks, and reads join pieces, without copying).
type Concat []Slice

// Len implements Content.
func (c Concat) Len() int64 {
	var n int64
	for _, part := range c {
		n += part.N
	}
	return n
}

// ReadAt implements Content.
func (c Concat) ReadAt(b []byte, off int64) {
	for _, part := range c {
		if len(b) == 0 {
			return
		}
		if off >= part.N {
			off -= part.N
			continue
		}
		take := min(part.N-off, int64(len(b)))
		part.C.ReadAt(b[:take], part.Off+off)
		b = b[take:]
		off = 0
	}
	if len(b) > 0 {
		panic("data: Concat.ReadAt past end")
	}
}

// Slice is a window into Content: the unit that moves through the simulated
// stack. Copying a Slice is free; materializing bytes is explicit.
type Slice struct {
	C   Content
	Off int64
	N   int64
}

// NewSlice returns a Slice covering all of c.
func NewSlice(c Content) Slice { return Slice{C: c, N: c.Len()} }

// Len returns the window length.
func (s Slice) Len() int64 { return s.N }

// Sub returns the sub-window [off, off+n) of s.
func (s Slice) Sub(off, n int64) Slice {
	if off < 0 || n < 0 || off+n > s.N {
		panic(fmt.Sprintf("data: Sub(%d,%d) out of window %d", off, n, s.N))
	}
	return Slice{C: s.C, Off: s.Off + off, N: n}
}

// Bytes materializes the window. Intended for tests and small final reads.
func (s Slice) Bytes() []byte {
	b := make([]byte, s.N)
	if s.N > 0 {
		s.C.ReadAt(b, s.Off)
	}
	return b
}

// sameContent reports whether a and b are one content: equal Pattern or
// Zero values, or a Bytes or Concat over the same backing array with the
// same length. Two boxed Concats are never compared with ==, which panics.
func sameContent(a, b Content) bool {
	switch ac := a.(type) {
	case Pattern, Zero:
		return a == b
	case Bytes:
		bc, ok := b.(Bytes)
		return ok && len(ac) == len(bc) && (len(ac) == 0 || &ac[0] == &bc[0])
	case Concat:
		bc, ok := b.(Concat)
		return ok && len(ac) == len(bc) && (len(ac) == 0 || &ac[0] == &bc[0])
	}
	return false
}

// continuedBy reports whether t continues s: the same content, starting
// where s ends.
func (s Slice) continuedBy(t Slice) bool {
	return s.Off+s.N == t.Off && sameContent(s.C, t.C)
}

// Builder joins windows, in order, into one Slice. A window that continues
// the last one widens it, so the pieces of one content come back as one
// window; the first window is held inline, and a Concat is built only for
// pieces that are not contiguous. The zero Builder is empty.
type Builder struct {
	last  Slice  // the window being widened
	parts Concat // the windows before last, once a piece did not continue
	n     int64
}

// Add appends s.
func (b *Builder) Add(s Slice) {
	switch {
	case s.N == 0:
		return
	case b.n == 0:
		b.last = s
	case b.last.continuedBy(s):
		b.last.N += s.N
	default:
		b.parts = append(b.parts, b.last) //lint:allow hotalloc(reads that are not contiguous: one array per Builder, grown by append)
		b.last = s
	}
	b.n += s.N
}

// Len returns the bytes added since the last Reset.
func (b *Builder) Len() int64 { return b.n }

// Reset empties b, dropping its parts, which a returned Slice may hold.
func (b *Builder) Reset() { *b = Builder{} }

// Slice returns the bytes added: the one window when every piece continued
// the first, else a Concat of the windows over b's parts array, so b must
// be Reset before it adds more.
func (b *Builder) Slice() Slice {
	if b.parts == nil {
		return b.last
	}
	return Slice{C: append(b.parts, b.last), N: b.n}
}

// maxRuns is how many windows Equal lists per side, on the stack. A
// byte-checked storm read is one run on each side; a read that spans more
// runs than this is compared by bytes.
const maxRuns = 16

// runs is one side's list of windows over comparable leaves, Patterns and
// Zeros, which compare by value: two windows are equal exactly when their
// descriptors are. The list is e[:k], written by index.
type runs struct {
	e [maxRuns]Slice
	k int
}

// add lists bytes [off, off+n) of c, descending through Concat parts and
// windows, and widens a window that the next one continues. It returns
// false if the range holds a leaf it cannot compare (Bytes, or any other
// Content) or the list outgrows maxRuns.
//
//lint:hotpath
func (r *runs) add(c Content, off, n int64) bool {
	if n == 0 {
		return true
	}
	switch cc := c.(type) {
	case Pattern, Zero:
		return r.push(Slice{C: c, Off: off, N: n})
	case Concat:
		for _, part := range cc {
			if off >= part.N {
				off -= part.N
				continue
			}
			take := min(part.N-off, n)
			if !r.add(part.C, part.Off+off, take) {
				return false
			}
			if n -= take; n == 0 {
				return true
			}
			off = 0
		}
	}
	return false
}

// push appends s, or widens the last window when s continues it.
func (r *runs) push(s Slice) bool {
	if r.k > 0 && r.e[r.k-1].continuedBy(s) {
		r.e[r.k-1].N += s.N
		return true
	}
	if r.k == maxRuns {
		return false
	}
	r.e[r.k] = s
	r.k++
	return true
}

// sameRuns reports whether a and b list the same windows, all of them over
// comparable leaves.
func sameRuns(a, b Slice) bool {
	var ra, rb runs
	if !ra.add(a.C, a.Off, a.N) || !rb.add(b.C, b.Off, b.N) || ra.k != rb.k {
		return false
	}
	for i := range ra.k {
		if ra.e[i] != rb.e[i] {
			return false
		}
	}
	return true
}

// Equal reports whether two slices have identical bytes.
//
// It first decides by identity: each side is listed as windows over its
// leaves, and when every leaf is a Pattern or a Zero and the two lists are
// equal, the bytes are equal without producing one, because content is
// immutable and a leaf's descriptor fixes its bytes. Every other case —
// a Bytes leaf, lists that differ, a list longer than maxRuns — is
// compared byte for byte, 512 bytes at a time into the two halves of one
// buffer, so no check is weaker than a full byte compare.
//
//lint:hotpath
func Equal(a, b Slice) bool {
	if a.N != b.N {
		return false
	}
	if sameRuns(a, b) {
		return true
	}
	const chunk = 512
	buf := make([]byte, 2*min(a.N, chunk)) //lint:allow hotalloc(byte fallback: one buffer per compare that identity cannot decide)
	bufA, bufB := buf[:len(buf)/2], buf[len(buf)/2:]
	for off := int64(0); off < a.N; off += chunk {
		n := a.N - off
		if n > chunk {
			n = chunk
		}
		a.C.ReadAt(bufA[:n], a.Off+off)
		b.C.ReadAt(bufB[:n], b.Off+off)
		if !bytes.Equal(bufA[:n], bufB[:n]) {
			return false
		}
	}
	return true
}

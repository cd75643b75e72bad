// Package statehash provides the canonical state-hash encoder used by every
// simulator component's StateHash method. A component folds its state into a
// Hash field by field; because the encoding is length-prefixed and
// type-tagged, two different state layouts cannot collide by concatenation
// (e.g. []uint64{1,2} vs []uint64{1},[]uint64{2}), and the resulting 64-bit
// digest is stable across processes and platforms — the property the replay
// harness relies on when diffing checkpointed hashes against re-executed
// ones.
//
// The fold is FNV-1a at WORD granularity: one xor-multiply per uint64 field
// (bool slices are bit-packed into words first) instead of the classical
// per-octet fold. State hashing sits on the per-point campaign path — a
// sweep digests the multi-megabyte LLC arrays once per point — and the
// octet fold's serial multiply chain made that the single most expensive
// step of a sweep point. Word folding is 8× fewer multiplies for identical
// structure. Each fold step (h ^ v) * prime is bijective in either operand,
// so the word variant loses none of the mixing structure equality gating
// relies on.
//
// Digests were redefined four times, on purpose, with the pinned goldens
// (TestStateHashGolden, testdata/hotpath_golden.json) regenerated: when the
// fold moved from octets to words; when each cache, TLB and prefetcher
// digest became one Walk over the component's fields, folding every array
// whole (invalid slots included) instead of set by set; when a cache's
// per-set arrays became Rows, folded only for the sets the cache ever
// filled, so a digest costs what a point touched rather than what the LLC
// holds; and when the machine digest became the walk of the machine and
// its address spaces, which also folds the frame, ASID and mmap cursors
// and the ASLR stream positions that a failed mmap advances. A checkpoint
// recorded earlier still resumes, since the campaign fingerprint does not
// cover the digest, but replaying it reports divergence.
package statehash

import (
	"encoding/binary"
	"math/bits"
	"slices"
	"unsafe"

	"afterimage/internal/detrand"
)

// FNV-1a 64-bit parameters.
const (
	offset64 = 14695981039346656037
	prime64  = 1099511628211
)

// Hash is an incremental FNV-1a 64 digest over typed, length-prefixed
// fields. The zero value is NOT ready to use; call New.
type Hash struct {
	h uint64
}

// New returns a Hash seeded with the FNV-1a offset basis.
func New() *Hash { return &Hash{h: offset64} }

// byte folds one byte.
func (h *Hash) byte(b byte) {
	h.h ^= uint64(b)
	h.h *= prime64
}

// word folds one uint64 in a single xor-multiply step.
func (h *Hash) word(v uint64) {
	h.h = (h.h ^ v) * prime64
}

// Field type tags keep differently-typed encodings disjoint.
const (
	tagU64 byte = iota + 1
	tagI64
	tagBool
	tagStr
	tagSlice
	tagRows
)

// U64 folds one unsigned word.
func (h *Hash) U64(v uint64) *Hash {
	h.byte(tagU64)
	h.word(v)
	return h
}

// I64 folds one signed word.
func (h *Hash) I64(v int64) *Hash {
	h.byte(tagI64)
	h.word(uint64(v))
	return h
}

// Int folds an int.
func (h *Hash) Int(v int) *Hash { return h.I64(int64(v)) }

// Bool folds a bool.
func (h *Hash) Bool(v bool) *Hash {
	h.byte(tagBool)
	if v {
		h.byte(1)
	} else {
		h.byte(0)
	}
	return h
}

// U64s folds a slice of words with a length prefix. The loop runs on a
// local accumulator so the multiply chain stays in registers — this is the
// hot path under the cache arrays.
func (h *Hash) U64s(vs []uint64) *Hash {
	h.prefix(len(vs))
	h.u64s(vs)
	return h
}

// prefix folds a slice's type tag and length.
func (h *Hash) prefix(n int) {
	h.byte(tagSlice)
	h.word(uint64(n))
}

// u64s folds the words of vs, without a prefix.
func (h *Hash) u64s(vs []uint64) {
	acc := h.h
	for _, v := range vs {
		acc = (acc ^ v) * prime64
	}
	h.h = acc
}

// Bools folds a slice of bools with a length prefix, bit-packed 64 per
// word (the length prefix makes the packing injective).
func (h *Hash) Bools(vs []bool) *Hash {
	h.prefix(len(vs))
	h.bools(vs)
	return h
}

// bools folds vs bit-packed, without a prefix: element i of each
// 64-element chunk is bit i of one word. Eight bools are read at a time as
// one little-endian word of 0/1 bytes and gathered into a byte by one
// multiply (byte j lands on bit 56+j; no two partial products overlap, so
// nothing carries), which is several times faster than a loop per bool.
func (h *Hash) bools(vs []bool) {
	b := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vs))), len(vs))
	acc := h.h
	for len(b) > 0 {
		n := min(len(b), 64)
		var packed uint64
		i := 0
		for ; i+8 <= n; i += 8 {
			packed |= (binary.LittleEndian.Uint64(b[i:]) * 0x0102040810204080 >> 56) << uint(i)
		}
		for ; i < n; i++ {
			packed |= uint64(b[i]) << uint(i)
		}
		acc = (acc ^ packed) * prime64
		b = b[n:]
	}
	h.h = acc
}

// Str folds a string with a length prefix.
func (h *Hash) Str(s string) *Hash {
	h.byte(tagStr)
	h.word(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h.byte(s[i])
	}
	return h
}

// Sum returns the current digest. The hash remains usable afterwards.
func (h *Hash) Sum() uint64 { return h.h }

// Combine folds an already-computed component digest into a parent hash —
// how Machine.StateHash merges its per-component hashes in a fixed order.
func (h *Hash) Combine(sub uint64) *Hash { return h.U64(sub) }

// Walk visits one component's state field by field. A component's walk
// method is the only place that names its state; StateHash and Fork
// derive from it:
//
//	h := statehash.New(); x.walk(h.Walk()); return h.Sum()
//	f := *x; f.walk(statehash.Copying()); return &f
//
// A hashing walk folds every field it visits (inside Rows, the marked rows
// only). A copying walk runs over a shallow copy of the component and
// replaces every slice and Source it visits, and every pointer passed to
// Own, with a private copy; scalars were already copied with the struct,
// so it skips them. A field is therefore either
// state (walked, so copied and hashed alike) or a per-machine attachment or
// immutable geometry that Fork resets or nothing ever mutates.
type Walk struct {
	h     *Hash // nil for a copying walk
	dense bool  // hashing: Rows folds whole arrays, ignoring the row set
	rows  int   // > 0 inside Rows: slices fold only row `row` of `rows`
	row   int   // -1: the header pass of Rows, tags and lengths only
}

// Walk returns a walk that folds every visited field into h.
func (h *Hash) Walk() Walk { return Walk{h: h} }

// DenseWalk returns a hashing walk for which Rows folds its arrays whole,
// every row included: the digest before rows existed. Tests use it as the
// reference the sparse digest must agree with.
func (h *Hash) DenseWalk() Walk { return Walk{h: h, dense: true} }

// Copying returns a walk that gives the walked value private copies of
// its slices and owned pointers.
func Copying() Walk { return Walk{} }

// Copies reports whether w is a copying walk — for state a copy must
// rebuild rather than fold, such as a rand.Rand over a copied source.
func (w Walk) Copies() bool { return w.h == nil }

// U64 visits an unsigned word.
func (w Walk) U64(v uint64) Walk {
	if w.h != nil {
		w.h.U64(v)
	}
	return w
}

// I64 visits a signed word.
func (w Walk) I64(v int64) Walk {
	if w.h != nil {
		w.h.I64(v)
	}
	return w
}

// Bool visits a bool.
func (w Walk) Bool(v bool) Walk {
	if w.h != nil {
		w.h.Bool(v)
	}
	return w
}

// Source visits a counting RNG source: a hashing walk folds its draw
// count, which with the seed is its whole state, and a copying walk
// replaces it with a clone at the same stream position.
func (w Walk) Source(s **detrand.Source) Walk {
	if w.h != nil {
		w.h.U64((*s).Draws())
	} else {
		*s = (*s).Clone()
	}
	return w
}

// span bounds the elements of an n-element slice a hashing walk folds,
// after folding the slice's tag and length where they belong: outside Rows,
// the prefix and every element; in the header pass of Rows, the prefix
// alone; in a row, that row's equal share alone.
func (w Walk) span(n int) (lo, hi int) {
	switch {
	case w.rows == 0:
		w.h.prefix(n)
		return 0, n
	case w.row < 0:
		w.h.prefix(n)
		return 0, 0
	case n == 0: // the unused policy kinds' nil slices, without a divide
		return 0, 0
	case n == w.rows: // one element per row, without a divide
		return w.row, w.row + 1
	}
	k := n / w.rows
	return w.row * k, (w.row + 1) * k
}

// U64s visits a word slice as one length-prefixed fold.
func (w Walk) U64s(s *[]uint64) Walk {
	if w.h != nil {
		lo, hi := w.span(len(*s))
		w.h.u64s((*s)[lo:hi])
	} else {
		*s = slices.Clone(*s)
	}
	return w
}

// Bools visits a bool slice as one bit-packed, length-prefixed fold.
func (w Walk) Bools(s *[]bool) Walk {
	if w.h != nil {
		lo, hi := w.span(len(*s))
		w.h.bools((*s)[lo:hi])
	} else {
		*s = slices.Clone(*s)
	}
	return w
}

// I32s visits an int32 slice, one word per element, length-prefixed.
func (w Walk) I32s(s *[]int32) Walk {
	if w.h == nil {
		*s = slices.Clone(*s)
		return w
	}
	lo, hi := w.span(len(*s))
	acc := w.h.h
	for _, v := range (*s)[lo:hi] {
		acc = (acc ^ uint64(uint32(v))) * prime64
	}
	w.h.h = acc
	return w
}

// Each visits a slice of records: a hashing walk folds its length and a
// copying walk replaces it with a private copy, then visit runs on every
// element in order (inside Rows, on the current row's elements).
func Each[T any](w Walk, s *[]T, visit func(*T)) {
	lo, hi := 0, len(*s)
	if w.h != nil {
		lo, hi = w.span(len(*s))
	} else {
		*s = slices.Clone(*s)
	}
	for i := lo; i < hi; i++ {
		visit(&(*s)[i])
	}
}

// Rows visits per-row state: visit walks arrays whose lengths are multiples
// of rows, row r being the r-th equal share of each, and set marks the rows
// that ever left their freshly built state. A copying walk copies set and
// every array whole. A hashing walk folds the marked count and every
// array's tag and length, then each marked row's index and its share of
// every array, in ascending row order; unmarked rows are skipped, so their
// contents must be a pure function of construction. A dense walk folds
// the arrays whole instead.
func (w Walk) Rows(set *[]uint64, rows int, visit func(Walk)) {
	switch {
	case w.h == nil:
		*set = slices.Clone(*set)
		visit(w)
	case w.dense:
		visit(w)
	default:
		n := 0
		for _, x := range *set {
			n += bits.OnesCount64(x)
		}
		w.h.byte(tagRows)
		w.h.word(uint64(n))
		visit(Walk{h: w.h, rows: rows, row: -1})
		for i, x := range *set {
			for ; x != 0; x &= x - 1 {
				r := i*64 + bits.TrailingZeros64(x)
				w.h.word(uint64(r))
				visit(Walk{h: w.h, rows: rows, row: r})
			}
		}
	}
}

// Own visits a pointer the component owns exclusively: a copying walk
// points it at a private shallow copy, which the caller then walks.
func Own[T any](w Walk, p **T) {
	if w.h == nil && *p != nil {
		c := **p
		*p = &c
	}
}

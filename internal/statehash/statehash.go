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
// Digests were redefined twice, on purpose, with the pinned goldens
// (TestStateHashGolden, testdata/hotpath_golden.json) regenerated: when the
// fold moved from octets to words, and when each cache, TLB and prefetcher
// digest became one Walk over the component's fields, folding every array
// whole (invalid slots included) instead of set by set. A checkpoint
// recorded earlier still resumes, since the campaign fingerprint does not
// cover the digest, but replaying it reports divergence.
package statehash

import "slices"

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
	h.byte(tagSlice)
	acc := (h.h ^ uint64(len(vs))) * prime64
	for _, v := range vs {
		acc = (acc ^ v) * prime64
	}
	h.h = acc
	return h
}

// Bools folds a slice of bools with a length prefix, bit-packed 64 per
// word (the length prefix makes the packing injective).
func (h *Hash) Bools(vs []bool) *Hash {
	h.byte(tagSlice)
	acc := (h.h ^ uint64(len(vs))) * prime64
	var packed uint64
	n := 0
	for _, v := range vs {
		if v {
			packed |= 1 << uint(n)
		}
		if n++; n == 64 {
			acc = (acc ^ packed) * prime64
			packed, n = 0, 0
		}
	}
	if n > 0 {
		acc = (acc ^ packed) * prime64
	}
	h.h = acc
	return h
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
// A hashing walk folds every field it visits. A copying walk runs over a
// shallow copy of the component and replaces every slice it visits, and
// every pointer passed to Own, with a private copy; scalars were already
// copied with the struct, so it skips them. A field is therefore either
// state (walked, so copied and hashed alike) or a per-machine attachment or
// immutable geometry that Fork resets or nothing ever mutates.
type Walk struct {
	h *Hash // nil for a copying walk
}

// Walk returns a walk that folds every visited field into h.
func (h *Hash) Walk() Walk { return Walk{h: h} }

// Copying returns a walk that gives the walked value private copies of
// its slices and owned pointers.
func Copying() Walk { return Walk{} }

// Copies reports whether w is a copying walk — for record fields that need
// their own deep copy, such as an RNG source.
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

// U64s visits a word slice as one length-prefixed fold.
func (w Walk) U64s(s *[]uint64) Walk {
	if w.h != nil {
		w.h.U64s(*s)
	} else {
		*s = slices.Clone(*s)
	}
	return w
}

// Bools visits a bool slice as one bit-packed, length-prefixed fold.
func (w Walk) Bools(s *[]bool) Walk {
	if w.h != nil {
		w.h.Bools(*s)
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
	w.h.byte(tagSlice)
	acc := (w.h.h ^ uint64(len(*s))) * prime64
	for _, v := range *s {
		acc = (acc ^ uint64(uint32(v))) * prime64
	}
	w.h.h = acc
	return w
}

// Each visits a slice of records: a hashing walk folds its length and a
// copying walk replaces it with a private copy, then visit runs on every
// element in order.
func Each[T any](w Walk, s *[]T, visit func(*T)) {
	if w.h != nil {
		w.h.byte(tagSlice)
		w.h.word(uint64(len(*s)))
	} else {
		*s = slices.Clone(*s)
	}
	for i := range *s {
		visit(&(*s)[i])
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

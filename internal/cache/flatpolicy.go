package cache

import (
	"fmt"

	"afterimage/internal/detrand"
	"afterimage/internal/statehash"
)

// Policies is the replacement engine: it holds the per-set replacement
// state of every set of one structure in contiguous slices, indexed by
// global set number g. A cache level uses one set per (slice, set) pair
// (slice-major, g = slice*nsets+set); the IP-stride prefetcher's history
// table is a single set. Keeping every set in one flat engine avoids a heap
// object per set and an interface dispatch per access.
type Policies struct {
	kind PolicyKind
	ways int

	// LRU and FIFO: a virtual clock per set and one stamp per way
	// (last-touch time for LRU, insertion time for FIFO).
	clocks []uint64 // [gset]
	stamps []uint64 // [gset*ways+way]

	// BitPLRU: one MRU bit per way plus the ones count per set.
	mru  []bool  // [gset*ways+way]
	ones []int32 // [gset]

	// TreePLRU: the internal nodes of a complete binary tree per set,
	// packed one word per set with node i at bit i; tnodes is the round-up
	// power of two of ways (bits 1..tnodes-1 used). Config validation caps
	// Tree-PLRU at 64 ways, so every tree fits its word, and a touch is two
	// precomputed masks instead of a root walk.
	twords []uint64 // [gset]
	tsetM  []uint64 // [way] bits a touch of this way sets
	tclrM  []uint64 // [way] bits a touch of this way clears
	tnodes int

	// Random: one counting source per set, so the RNG position forks and
	// hashes with the rest of the state.
	srcs []*detrand.Source // [gset]
}

// NewPolicies builds the engine for gsets sets of ways ways each. seedOf
// gives set g's seed; only RandomPolicy consumes it.
func NewPolicies(kind PolicyKind, gsets, ways int, seedOf func(g int) int64) *Policies {
	pa := &Policies{kind: kind, ways: ways}
	switch kind {
	case LRU, FIFO:
		pa.clocks = make([]uint64, gsets)
		pa.stamps = make([]uint64, gsets*ways)
	case BitPLRU:
		pa.mru = make([]bool, gsets*ways)
		pa.ones = make([]int32, gsets)
	case TreePLRU:
		n := 1
		for n < ways {
			n <<= 1
		}
		if n > 64 {
			panic(fmt.Sprintf("cache: Tree-PLRU over %d ways exceeds one 64-bit tree word", ways))
		}
		pa.tnodes = n
		pa.twords = make([]uint64, gsets)
		pa.tsetM = make([]uint64, ways)
		pa.tclrM = make([]uint64, ways)
		for w := 0; w < ways; w++ {
			idx := n + w
			for idx > 1 {
				parent := idx / 2
				if idx%2 == 0 {
					pa.tsetM[w] |= 1 << uint(parent)
				} else {
					pa.tclrM[w] |= 1 << uint(parent)
				}
				idx = parent
			}
		}
	case RandomPolicy:
		pa.srcs = make([]*detrand.Source, gsets)
		for g := range pa.srcs {
			pa.srcs[g] = detrand.NewSource(seedOf(g))
		}
	default:
		panic(fmt.Sprintf("cache: unknown policy kind %v", kind))
	}
	return pa
}

// Name identifies the policy.
func (pa *Policies) Name() string { return pa.kind.String() }

// Touch records a hit on way w of global set g.
func (pa *Policies) Touch(g, w int) {
	switch pa.kind {
	case LRU:
		pa.clocks[g]++
		pa.stamps[g*pa.ways+w] = pa.clocks[g]
	case BitPLRU:
		mru := pa.mru[g*pa.ways : (g+1)*pa.ways]
		if !mru[w] {
			pa.ones[g]++
			mru[w] = true
		}
		if int(pa.ones[g]) == pa.ways {
			for i := range mru {
				mru[i] = false
			}
			mru[w] = true
			pa.ones[g] = 1
		}
	case TreePLRU:
		pa.twords[g] = (pa.twords[g] &^ pa.tclrM[w]) | pa.tsetM[w]
	case FIFO, RandomPolicy:
		// recency-blind
	}
}

// Victim selects the way to evict from global set g. It changes no state
// except RandomPolicy's, which consumes one source draw; the subsequent
// Insert records the fill.
func (pa *Policies) Victim(g int) int {
	switch pa.kind {
	case LRU, FIFO:
		stamps := pa.stamps[g*pa.ways : (g+1)*pa.ways]
		best, bestStamp := 0, stamps[0]
		for i := 1; i < len(stamps); i++ {
			if s := stamps[i]; s < bestStamp {
				best, bestStamp = i, s
			}
		}
		return best
	case BitPLRU:
		mru := pa.mru[g*pa.ways : (g+1)*pa.ways]
		for i := range mru {
			if !mru[i] {
				return i
			}
		}
		return 0 // unreachable: touch never leaves all bits set
	case TreePLRU:
		word := pa.twords[g]
		idx := 1
		for idx < pa.tnodes {
			idx = 2*idx + int((word>>uint(idx))&1)
		}
		v := idx - pa.tnodes
		if v >= pa.ways {
			v = pa.ways - 1
		}
		return v
	default: // RandomPolicy
		return int(pa.srcs[g].Int63() % int64(pa.ways))
	}
}

// Insert records that way w of global set g was (re)filled.
func (pa *Policies) Insert(g, w int) {
	switch pa.kind {
	case FIFO:
		pa.clocks[g]++
		pa.stamps[g*pa.ways+w] = pa.clocks[g]
	case RandomPolicy:
		// stateless
	default:
		pa.Touch(g, w)
	}
}

// Walk visits the engine's mutable state: per-kind slices (the unused
// kinds' are nil) and the Random sources at their stream positions; inside
// a cache's Rows, one set's share of each. The tree masks, kind, ways and
// tnodes are geometry, fixed at construction.
func (pa *Policies) Walk(w statehash.Walk) {
	w.U64s(&pa.clocks).U64s(&pa.stamps).Bools(&pa.mru).I32s(&pa.ones).U64s(&pa.twords)
	statehash.Each(w, &pa.srcs, func(s **detrand.Source) { w.Source(s) })
}

// Audit checks set g's structural invariants and returns the first
// violation, or nil. LRU and FIFO stamps never run ahead of the clock;
// Bit-PLRU's ones counter matches its popcount and at least one MRU bit is
// clear (Touch resets the all-ones state eagerly, never stores it).
func (pa *Policies) Audit(g int) error {
	switch pa.kind {
	case LRU, FIFO:
		base := g * pa.ways
		for i := 0; i < pa.ways; i++ {
			if pa.stamps[base+i] > pa.clocks[g] {
				return fmt.Errorf("%s: way %d stamp %d ahead of clock %d", pa.Name(), i, pa.stamps[base+i], pa.clocks[g])
			}
		}
		return nil
	case BitPLRU:
		base := g * pa.ways
		pop := 0
		for i := 0; i < pa.ways; i++ {
			if pa.mru[base+i] {
				pop++
			}
		}
		if pop != int(pa.ones[g]) {
			return fmt.Errorf("Bit-PLRU: ones counter %d != popcount %d", pa.ones[g], pop)
		}
		if pop == pa.ways && pa.ways > 0 {
			return fmt.Errorf("Bit-PLRU: all %d MRU bits set (all-ones state must never persist)", pop)
		}
		return nil
	default:
		return nil
	}
}

// CorruptBitPLRU forces set g into the forbidden Bit-PLRU all-ones state
// (every MRU bit set, counter agreeing), which Touch can never produce and
// Audit must flag. It reports false when the policy is not Bit-PLRU.
func (pa *Policies) CorruptBitPLRU(g int) bool {
	if pa.kind != BitPLRU || pa.ways == 0 {
		return false
	}
	base := g * pa.ways
	for i := 0; i < pa.ways; i++ {
		pa.mru[base+i] = true
	}
	pa.ones[g] = int32(pa.ways)
	return true
}

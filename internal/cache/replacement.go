// Package cache implements the memory-hierarchy substrate of the AfterImage
// simulator: set-associative caches with pluggable replacement policies, a
// sliced last-level cache with a Haswell-style XOR slice hash, and an
// inclusive three-level hierarchy offering the access, flush and fill
// operations the attacks build on.
package cache

import (
	"fmt"

	"afterimage/internal/detrand"
)

// Policy is a per-set replacement policy over a fixed number of ways.
//
// The same interface backs both cache sets and the IP-stride prefetcher's
// history table (§4.5 of the paper concludes the latter uses Bit-PLRU).
type Policy interface {
	// Touch records a hit on the given way.
	Touch(way int)
	// Victim selects the way to evict when the set is full. It must not
	// change the policy state; the subsequent Insert does.
	Victim() int
	// Insert records that the way was (re)filled.
	Insert(way int)
	// Name identifies the policy.
	Name() string
	// Save serialises the policy's replacement state as a flat word slice
	// whose layout is private to the policy. Load(Save()) must restore an
	// equivalent policy.
	Save() []uint64
	// Load adopts previously saved state verbatim — no sanitisation, so a
	// corrupted save sticks and Audit can observe it.
	Load(state []uint64)
	// Audit checks the policy's structural invariants (e.g. Bit-PLRU never
	// holds all MRU bits set) and returns a description of the first
	// violation, or nil.
	Audit() error
}

// PolicyKind enumerates the built-in replacement policies.
type PolicyKind int

const (
	// LRU is true least-recently-used.
	LRU PolicyKind = iota
	// FIFO evicts in insertion order, ignoring hits.
	FIFO
	// BitPLRU is the MRU-bit approximation of LRU that §4.5 identifies in
	// the IP-stride prefetcher.
	BitPLRU
	// TreePLRU is the binary-tree approximation common in cache ways.
	TreePLRU
	// RandomPolicy evicts a pseudo-random way (seeded, deterministic).
	RandomPolicy
)

// String names the kind.
func (k PolicyKind) String() string {
	switch k {
	case LRU:
		return "LRU"
	case FIFO:
		return "FIFO"
	case BitPLRU:
		return "Bit-PLRU"
	case TreePLRU:
		return "Tree-PLRU"
	case RandomPolicy:
		return "Random"
	default:
		return fmt.Sprintf("PolicyKind(%d)", int(k))
	}
}

// NewPolicy constructs a policy of the given kind for w ways. The seed is
// only used by RandomPolicy.
func NewPolicy(kind PolicyKind, w int, seed int64) Policy {
	switch kind {
	case LRU:
		return newLRU(w)
	case FIFO:
		return newFIFO(w)
	case BitPLRU:
		return NewBitPLRU(w)
	case TreePLRU:
		return newTreePLRU(w)
	case RandomPolicy:
		return newRandomPolicy(w, seed)
	default:
		panic(fmt.Sprintf("cache: unknown policy kind %v", kind))
	}
}

// lru keeps an exact recency ordering; stamps[i] is the virtual time of the
// last touch of way i.
type lru struct {
	clock  uint64
	stamps []uint64
}

func newLRU(w int) *lru { return &lru{stamps: make([]uint64, w)} }

func (p *lru) Touch(way int) { p.clock++; p.stamps[way] = p.clock }

func (p *lru) Victim() int {
	best, bestStamp := 0, p.stamps[0]
	for i, s := range p.stamps[1:] {
		if s < bestStamp {
			best, bestStamp = i+1, s
		}
	}
	return best
}

func (p *lru) Insert(way int) { p.Touch(way) }
func (p *lru) Name() string   { return "LRU" }

// Save layout: [clock, stamps...].
func (p *lru) Save() []uint64 {
	return append([]uint64{p.clock}, p.stamps...)
}

func (p *lru) Load(state []uint64) {
	p.clock = state[0]
	copy(p.stamps, state[1:])
}

func (p *lru) Audit() error {
	for i, s := range p.stamps {
		if s > p.clock {
			return fmt.Errorf("LRU: way %d stamp %d ahead of clock %d", i, s, p.clock)
		}
	}
	return nil
}

// fifo evicts in insertion order; Touch is a no-op.
type fifo struct {
	order []uint64
	clock uint64
}

func newFIFO(w int) *fifo { return &fifo{order: make([]uint64, w)} }

func (p *fifo) Touch(int) {}

func (p *fifo) Victim() int {
	best, bestStamp := 0, p.order[0]
	for i, s := range p.order[1:] {
		if s < bestStamp {
			best, bestStamp = i+1, s
		}
	}
	return best
}

func (p *fifo) Insert(way int) { p.clock++; p.order[way] = p.clock }
func (p *fifo) Name() string   { return "FIFO" }

// Save layout: [clock, order...].
func (p *fifo) Save() []uint64 {
	return append([]uint64{p.clock}, p.order...)
}

func (p *fifo) Load(state []uint64) {
	p.clock = state[0]
	copy(p.order, state[1:])
}

func (p *fifo) Audit() error {
	for i, s := range p.order {
		if s > p.clock {
			return fmt.Errorf("FIFO: way %d stamp %d ahead of clock %d", i, s, p.clock)
		}
	}
	return nil
}

// bitPLRU keeps one MRU bit per way. A touch sets the way's bit; when that
// would make all bits one, every other bit is cleared first. The victim is
// the lowest-indexed way whose bit is clear. This is the textbook Bit-PLRU
// and reproduces the eviction patterns of Figures 8a and 8b.
type bitPLRU struct {
	mru  []bool
	ones int
}

// NewBitPLRU builds a Bit-PLRU policy over w ways. It is exported because
// the prefetcher package reuses it directly for its history table.
func NewBitPLRU(w int) Policy { return &bitPLRU{mru: make([]bool, w)} }

func (p *bitPLRU) Touch(way int) {
	if !p.mru[way] {
		p.ones++
		p.mru[way] = true
	}
	if p.ones == len(p.mru) {
		for i := range p.mru {
			p.mru[i] = false
		}
		p.mru[way] = true
		p.ones = 1
	}
}

func (p *bitPLRU) Victim() int {
	for i, b := range p.mru {
		if !b {
			return i
		}
	}
	return 0 // unreachable: Touch never leaves all bits set
}

func (p *bitPLRU) Insert(way int) { p.Touch(way) }
func (p *bitPLRU) Name() string   { return "Bit-PLRU" }

// Save layout: [ones, bits...].
func (p *bitPLRU) Save() []uint64 {
	out := make([]uint64, 1+len(p.mru))
	out[0] = uint64(p.ones)
	for i, b := range p.mru {
		if b {
			out[1+i] = 1
		}
	}
	return out
}

func (p *bitPLRU) Load(state []uint64) {
	p.ones = int(state[0])
	for i := range p.mru {
		p.mru[i] = state[1+i] != 0
	}
}

// Audit enforces the two Bit-PLRU invariants Touch maintains: the ones
// counter matches the population count, and at least one MRU bit is always
// clear (the all-ones state is reset eagerly, never stored).
func (p *bitPLRU) Audit() error {
	pop := 0
	for _, b := range p.mru {
		if b {
			pop++
		}
	}
	if pop != p.ones {
		return fmt.Errorf("Bit-PLRU: ones counter %d != popcount %d", p.ones, pop)
	}
	if pop == len(p.mru) && len(p.mru) > 0 {
		return fmt.Errorf("Bit-PLRU: all %d MRU bits set (all-ones state must never persist)", pop)
	}
	return nil
}

// CorruptBitPLRU forces a Bit-PLRU policy into the forbidden all-ones state
// (every MRU bit set, counter agreeing), which Touch can never produce and
// Audit must flag. It reports false when the policy is not Bit-PLRU.
func CorruptBitPLRU(p Policy) bool {
	if v, ok := p.(*setPolicyView); ok {
		return corruptViewBitPLRU(v)
	}
	bp, ok := p.(*bitPLRU)
	if !ok || len(bp.mru) == 0 {
		return false
	}
	for i := range bp.mru {
		bp.mru[i] = true
	}
	bp.ones = len(bp.mru)
	return true
}

// treePLRU is the classic binary-tree pseudo-LRU (ways must be a power of 2;
// other widths are rounded up internally and out-of-range victims re-walked).
type treePLRU struct {
	ways int
	bits []bool // internal nodes of a complete binary tree
}

func newTreePLRU(w int) *treePLRU {
	n := 1
	for n < w {
		n <<= 1
	}
	return &treePLRU{ways: w, bits: make([]bool, n)} // bits[1..n-1] used
}

func (p *treePLRU) Touch(way int) {
	n := len(p.bits)
	idx := n + way
	for idx > 1 {
		parent := idx / 2
		p.bits[parent] = idx%2 == 0 // point away from the touched child
		idx = parent
	}
}

func (p *treePLRU) Victim() int {
	n := len(p.bits)
	idx := 1
	for idx < n {
		if p.bits[idx] {
			idx = 2*idx + 1
		} else {
			idx = 2 * idx
		}
	}
	v := idx - n
	if v >= p.ways {
		v = p.ways - 1
	}
	return v
}

func (p *treePLRU) Insert(way int) { p.Touch(way) }
func (p *treePLRU) Name() string   { return "Tree-PLRU" }

// Save layout: [bits...] (any bit pattern is a legal tree state).
func (p *treePLRU) Save() []uint64 {
	out := make([]uint64, len(p.bits))
	for i, b := range p.bits {
		if b {
			out[i] = 1
		}
	}
	return out
}

func (p *treePLRU) Load(state []uint64) {
	for i := range p.bits {
		p.bits[i] = state[i] != 0
	}
}

func (p *treePLRU) Audit() error { return nil }

// randomPolicy evicts pseudo-randomly from a counting source so its RNG
// position saves, hashes and forks alongside the rest of the policy state.
type randomPolicy struct {
	ways int
	src  *detrand.Source
}

func newRandomPolicy(w int, seed int64) *randomPolicy {
	return &randomPolicy{ways: w, src: detrand.NewSource(seed)}
}

func (p *randomPolicy) Touch(int) {}
func (p *randomPolicy) Victim() int {
	// rand.Rand.Intn for small n reduces to one Int63 draw; inline the
	// equivalent so the draw count maps one-to-one onto source positions.
	return int(p.src.Int63() % int64(p.ways))
}
func (p *randomPolicy) Insert(way int) {}
func (p *randomPolicy) Name() string   { return "Random" }

// Save layout: [draws] — the RNG position is the policy's only state.
func (p *randomPolicy) Save() []uint64      { return []uint64{p.src.Draws()} }
func (p *randomPolicy) Load(state []uint64) { p.src.Restore(state[0]) }
func (p *randomPolicy) Audit() error        { return nil }

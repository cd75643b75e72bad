// Package cache implements the memory-hierarchy substrate of the AfterImage
// simulator: set-associative caches with pluggable replacement policies, a
// sliced last-level cache with a Haswell-style XOR slice hash, and an
// inclusive three-level hierarchy offering the access, flush and fill
// operations the attacks build on.
package cache

import "fmt"

// PolicyKind enumerates the built-in replacement policies.
type PolicyKind int

const (
	// LRU is true least-recently-used.
	LRU PolicyKind = iota
	// FIFO evicts in insertion order, ignoring hits.
	FIFO
	// BitPLRU is the MRU-bit approximation of LRU that §4.5 identifies in
	// the IP-stride prefetcher. A touch sets the way's bit; when that would
	// make all bits one, every other bit is cleared first. The victim is the
	// lowest-indexed way whose bit is clear, which reproduces the eviction
	// patterns of Figures 8a and 8b.
	BitPLRU
	// TreePLRU is the binary-tree approximation common in cache ways. Widths
	// that are not a power of two round the tree up and clamp the victim.
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

package tlb

import (
	"testing"

	"afterimage/internal/mem"
)

// TestTLBStateHashNormalization: two TLBs holding the same translations
// under different raw ASIDs hash identically once the normalizer maps them
// to the same stable IDs — the property that makes machine hashes
// comparable across process-global ASID allocation order.
func TestTLBStateHashNormalization(t *testing.T) {
	a, b := New(DefaultConfig()), New(DefaultConfig())
	for i := uint64(0); i < 8; i++ {
		a.Lookup(101, mem.VAddr(0x5000_0000+i*mem.PageSize))
		b.Lookup(202, mem.VAddr(0x5000_0000+i*mem.PageSize))
	}
	if a.StateHash(nil) == b.StateHash(nil) {
		t.Fatal("distinct raw ASIDs hashed identically without normalization")
	}
	norm := func(want uint64) func(uint64) uint64 {
		return func(asid uint64) uint64 {
			if asid == want {
				return 1
			}
			return asid
		}
	}
	if a.StateHash(norm(101)) != b.StateHash(norm(202)) {
		t.Fatal("normalized hashes differ for identical translation state")
	}
}

package tlb

import (
	"testing"

	"afterimage/internal/mem"
)

// TestTLBStateHashCoversASID: the digest folds each valid entry's ASID, so
// the same translations under different ASIDs hash differently and under
// the same ASID identically.
func TestTLBStateHashCoversASID(t *testing.T) {
	a, b, c := New(DefaultConfig()), New(DefaultConfig()), New(DefaultConfig())
	for i := uint64(0); i < 8; i++ {
		va := mem.VAddr(0x5000_0000 + i*mem.PageSize)
		a.Lookup(101, va)
		b.Lookup(202, va)
		c.Lookup(101, va)
	}
	if a.StateHash() == b.StateHash() {
		t.Fatal("distinct ASIDs hashed identically")
	}
	if a.StateHash() != c.StateHash() {
		t.Fatal("identical translation state hashed differently")
	}
}

package mem

import (
	"testing"

	"afterimage/internal/statehash"
	"afterimage/internal/walktest"
)

// forkSpace copies an address space the way Machine.Fork does: its
// physical memory first, then the space, bound to that copy.
func forkSpace(as *AddressSpace) *AddressSpace {
	phys := *as.phys
	f := *as
	f.Walk(statehash.Copying(), &phys)
	return &f
}

// hashSpace digests an address space together with its physical memory.
func hashSpace(as *AddressSpace) uint64 {
	h := statehash.New()
	as.phys.Walk(h.Walk())
	as.Walk(h.Walk(), nil)
	return h.Sum()
}

// newWalkSpace builds an ASLR space with a mapping of each kind.
func newWalkSpace() *AddressSpace {
	phys := NewPhysMemory(1 << 24)
	as := NewAddressSpace("a", phys, 7)
	as.MustMmap(3*PageSize, MapLocked)
	as.MustMmap(2*PageSize, MapReclaimable)
	as.MapExisting(NewAddressSpace("b", phys, 0).MustMmap(PageSize, MapShared))
	return as
}

// TestAddressSpaceWalkCoverage: every AddressSpace, Mapping and
// PhysMemory field is either walked (so copied and hashed) or on the
// attachment/geometry list. A failed mmap leaves the cursors it advanced
// behind.
func TestAddressSpaceWalkCoverage(t *testing.T) {
	as := newWalkSpace()
	if _, err := as.Mmap(1<<24, MapLocked); err == nil {
		t.Fatal("an mmap of all physical memory succeeded")
	}
	const replay = "the generator replays from seed to draws"
	walktest.Check(t, as, forkSpace, hashSpace, walktest.Attached{
		"Name":         "a fixed label",
		"phys.frames":  "capacity, fixed at construction",
		"pages":        "an index over the mappings, rebuilt by the copying walk",
		"aslr":         "a rand.Rand over aslrSrc, rebuilt by the copying walk",
		"aslrSrc.seed": replay,
		"aslrSrc.src":  replay,
	})
}

// TestAddressSpaceCopyBehavesAlike: the copy's rebuilt page table
// translates every page as the parent's does, and the next mmaps on both
// sides pick the same bases and frames without touching each other.
func TestAddressSpaceCopyBehavesAlike(t *testing.T) {
	as := newWalkSpace()
	f := forkSpace(as)
	for _, m := range as.Mappings() {
		for v := m.Base; v < m.End(); v += PageSize / 2 {
			pa, _ := as.Translate(v)
			if pb, ok := f.Translate(v); !ok || pa != pb {
				t.Fatalf("%#x: copy translates to %#x (%v), parent to %#x", uint64(v), uint64(pb), ok, uint64(pa))
			}
		}
	}
	for i := 0; i < 3; i++ {
		a, b := as.MustMmap(PageSize, MapLocked), f.MustMmap(PageSize, MapLocked)
		if a.Base != b.Base || a.Frames()[0] != b.Frames()[0] {
			t.Fatalf("mmap %d: parent %#x/%d, copy %#x/%d", i, uint64(a.Base), a.Frames()[0], uint64(b.Base), b.Frames()[0])
		}
		if _, ok := as.Translate(a.Base); !ok {
			t.Fatal("parent lost its own mapping")
		}
	}
	if len(as.Mappings()) != len(f.Mappings()) || as.Mappings()[0] == f.Mappings()[0] {
		t.Fatal("copy shares or lost the parent's mappings")
	}
}

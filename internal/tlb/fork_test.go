package tlb

import (
	"testing"

	"afterimage/internal/mem"
)

// Fork regression suite: Fork must copy entries verbatim under their ASIDs,
// drop the way-predictor memo, and share nothing mutable with the parent.

func TestForkKeepsValidEntries(t *testing.T) {
	tl := New(DefaultConfig())
	va := mem.VAddr(0x40_0000)
	tl.Warm(5, va)
	f := tl.Fork()
	if !f.Contains(5, va) {
		t.Fatal("fork lost the warmed entry")
	}
	if f.Contains(9, va) {
		t.Fatal("fork entry visible under another ASID")
	}
	if got, want := f.StateHash(), tl.StateHash(); got != want {
		t.Fatalf("fork hash %#x, parent %#x", got, want)
	}
}

func TestForkDropsWayPredictor(t *testing.T) {
	tl := New(DefaultConfig())
	va := mem.VAddr(0x40_0000)
	tl.Lookup(5, va) // install
	tl.Lookup(5, va) // arm the predictor
	if !tl.predOK {
		t.Fatal("parent predictor not armed (test substrate broken)")
	}
	f := tl.Fork()
	if f.predOK {
		t.Fatal("fork carried the way-predictor memo")
	}
	// The memo is location-only: the parent serves the next lookup through
	// the predictor fast path, the fork through the full scan, and both must
	// perform the exact same mutations (clock bump, stamp, hit count).
	if hit, _ := f.Lookup(5, va); !hit {
		t.Fatal("fork lost the installed entry")
	}
	if hit, _ := tl.Lookup(5, va); !hit {
		t.Fatal("parent lost the installed entry")
	}
	if got, want := f.StateHash(), tl.StateHash(); got != want {
		t.Fatalf("fork hash %#x, parent %#x after identical lookups", got, want)
	}
}

func TestForkIndependence(t *testing.T) {
	tl := New(DefaultConfig())
	for i := 0; i < 64; i++ {
		tl.Lookup(7, mem.VAddr(i)*mem.PageSize)
	}
	before := tl.StateHash()
	f := tl.Fork()
	for i := 64; i < 256; i++ {
		f.Lookup(7, mem.VAddr(i)*mem.PageSize)
	}
	f.FlushAll()
	if got := tl.StateHash(); got != before {
		t.Fatalf("fork activity mutated the parent: %#x -> %#x", before, got)
	}
}

// TestForkPreservesInvalidSlots: invalid ways keep their stale tags,
// byte-identical to the parent — so a fork's hash matches the parent's even
// where slots are dead.
func TestForkPreservesInvalidSlots(t *testing.T) {
	tl := New(DefaultConfig())
	for i := 0; i < 32; i++ {
		tl.Lookup(3, mem.VAddr(i)*mem.PageSize)
	}
	tl.FlushAll() // leaves stale tags in invalid slots
	f := tl.Fork()
	if got, want := f.StateHash(), tl.StateHash(); got != want {
		t.Fatalf("fork hash %#x, parent %#x (invalid-slot bytes drifted)", got, want)
	}
}

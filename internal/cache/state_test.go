package cache

import (
	"testing"

	"afterimage/internal/mem"
)

// TestCacheForkEveryPolicy: under every replacement policy a fork taken
// from a populated cache keeps its state while the parent diverges, audits
// clean, and replays an identical access stream to the same final hash as
// a second fork — replacement state (Random's RNG position included) is
// copied, not shared.
func TestCacheForkEveryPolicy(t *testing.T) {
	for _, pol := range allPolicies {
		t.Run(pol.String(), func(t *testing.T) {
			c := MustNew(small(pol))
			for i := uint64(0); i < 40; i++ {
				p := mem.PAddr(i * 0x240)
				if !c.Access(p) {
					c.Fill(p)
				}
			}
			h := c.StateHash()
			a, b := c.Fork(), c.Fork()

			for i := uint64(0); i < 16; i++ {
				c.Fill(mem.PAddr(0x80000 + i*0x40))
			}
			if c.StateHash() == h {
				t.Fatal("hash unchanged after mutation")
			}
			if got := a.StateHash(); got != h {
				t.Fatalf("fork hash %#x after parent diverged, want %#x", got, h)
			}
			if errs := a.Audit(); len(errs) != 0 {
				t.Fatalf("forked cache fails audit: %v", errs)
			}
			for _, f := range []*Cache{a, b} {
				for i := uint64(0); i < 24; i++ {
					p := mem.PAddr(0x40000 + i*0x1c0)
					if !f.Access(p) {
						f.Fill(p)
					}
				}
			}
			if a.StateHash() != b.StateHash() {
				t.Fatal("two forks diverged under an identical access stream")
			}
		})
	}
}

// hierHash folds the three level hashes, the way sim's component map does.
func hierHash(h *Hierarchy) [3]uint64 {
	return [3]uint64{h.L1.StateHash(), h.L2.StateHash(), h.LLC.StateHash()}
}

// TestHierarchyInclusivityAudit: a populated hierarchy audits clean, and
// breaking inclusivity (an L1-resident line removed from the LLC) shows up
// in the audit — on the hierarchy and on a fork taken afterwards.
func TestHierarchyInclusivityAudit(t *testing.T) {
	h, err := NewHierarchy(HierarchyConfig{
		L1:  Config{Name: "l1", SizeBytes: 8 << 10, Ways: 4, LineSize: 64, Policy: BitPLRU},
		L2:  Config{Name: "l2", SizeBytes: 32 << 10, Ways: 4, LineSize: 64, Policy: LRU},
		LLC: Config{Name: "llc", SizeBytes: 128 << 10, Ways: 8, LineSize: 64, Policy: LRU},
		Lat: Latencies{L1: 4, L2: 12, LLC: 40, DRAM: 200},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 64; i++ {
		h.Load(mem.PAddr(i * 0x1040))
	}
	if errs := h.Audit(); len(errs) != 0 {
		t.Fatalf("hierarchy fails audit after loads: %v", errs)
	}
	hash := hierHash(h)
	if !h.CorruptInclusivity() {
		t.Fatal("CorruptInclusivity found no line to break")
	}
	if hierHash(h) == hash {
		t.Fatal("hierarchy hash unchanged by the corruption")
	}
	if errs := h.Audit(); len(errs) == 0 {
		t.Fatal("audit missed the inclusivity break")
	}
	if errs := h.Fork().Audit(); len(errs) == 0 {
		t.Fatal("fork laundered the inclusivity break")
	}
}

// TestBitPLRUCorruptionCaught: the all-ones MRU state Bit-PLRU can never
// reach legally must fail the policy audit.
func TestBitPLRUCorruptionCaught(t *testing.T) {
	c := MustNew(small(BitPLRU))
	for i := uint64(0); i < 8; i++ {
		c.Fill(mem.PAddr(i * 0x40))
	}
	if errs := c.Audit(); len(errs) != 0 {
		t.Fatalf("clean Bit-PLRU fails audit: %v", errs)
	}
	if !c.pol.CorruptBitPLRU(0) {
		t.Fatal("CorruptBitPLRU refused a Bit-PLRU engine")
	}
	if errs := c.Audit(); len(errs) == 0 {
		t.Fatal("audit missed the Bit-PLRU corruption")
	}
}

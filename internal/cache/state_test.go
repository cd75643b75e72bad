package cache

import (
	"math/rand"
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

// untouchedDigest digests, through the cache's own walk, only the sets of
// c that touched does not mark: a fork of c marking the complement, with
// the counters zeroed.
func untouchedDigest(c *Cache, touched []uint64) uint64 {
	f := c.Fork()
	for i := range f.touched {
		f.touched[i] = ^touched[i]
	}
	if tail := len(f.vcnt) % 64; tail != 0 {
		f.touched[len(f.touched)-1] &= 1<<uint(tail) - 1
	}
	f.hits, f.misses, f.prefetchFills, f.usefulPrefetch = 0, 0, 0, 0
	return f.StateHash()
}

// TestUntouchedSetsArePristine: after a random mix of loads, fills,
// prefetches, LLC-only fills and flushes through a hierarchy, under every
// replacement policy, every set a level never marked still equals the set
// New built, VisitLines finds every valid line and the audit is clean.
// Dropping the mark from either empty-way fill path (insert or fillMissed)
// fails it.
func TestUntouchedSetsArePristine(t *testing.T) {
	for _, k := range allPolicies {
		t.Run(k.String(), func(t *testing.T) {
			cfg := HierarchyConfig{
				L1:  Config{Name: "l1", SizeBytes: 8 << 10, Ways: 4, LineSize: 64, Policy: k, PolicySeed: 1},
				L2:  Config{Name: "l2", SizeBytes: 32 << 10, Ways: 4, LineSize: 64, Policy: k, PolicySeed: 2},
				LLC: Config{Name: "llc", SizeBytes: 192 << 10, Ways: 8, LineSize: 64, Policy: k, PolicySeed: 3, Slices: 2},
			}
			h, err := NewHierarchy(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(k) + 1))
			pool := make([]mem.PAddr, 96)
			for i := range pool {
				pool[i] = mem.PAddr(rng.Int63n(1<<30)) &^ 63
			}
			for n := 0; n < 3000; n++ {
				p := pool[rng.Intn(len(pool))]
				switch rng.Intn(6) {
				case 0:
					h.Fill(p)
				case 1:
					h.Prefetch(p)
				case 2:
					h.FillLLCOnly(p)
				case 3:
					h.Flush(p)
				default:
					h.Load(p)
				}
			}
			if errs := h.Audit(); len(errs) != 0 {
				t.Fatalf("audit: %v", errs)
			}
			fresh, _ := NewHierarchy(cfg)
			for _, lv := range [][2]*Cache{{h.L1, fresh.L1}, {h.L2, fresh.L2}, {h.LLC, fresh.LLC}} {
				c, built := lv[0], lv[1]
				if got, want := untouchedDigest(c, c.touched), untouchedDigest(built, c.touched); got != want {
					t.Errorf("%s: a set never marked touched differs from its built state", c.cfg.Name)
				}
				var visited, valid int
				c.VisitLines(func(uint64) bool { visited++; return true })
				for _, v := range c.valid {
					if v {
						valid++
					}
				}
				if visited != valid {
					t.Errorf("%s: VisitLines saw %d lines, %d are valid", c.cfg.Name, visited, valid)
				}
			}
			marked := 0
			h.LLC.eachTouched(func(int) bool { marked++; return true })
			if marked == 0 || marked == len(h.LLC.vcnt) {
				t.Fatalf("LLC has %d of %d sets touched; the check needs both kinds", marked, len(h.LLC.vcnt))
			}
		})
	}
}

package tlb

import (
	"testing"

	"afterimage/internal/mem"
	"afterimage/internal/walktest"
)

// TestTLBWalkCoverage: every TLB and level field is either walked (so
// forked and hashed) or on the attachment/geometry list.
func TestTLBWalkCoverage(t *testing.T) {
	tl := New(DefaultConfig())
	for i := 0; i < 200; i++ {
		tl.Lookup(uint64(1+i%3), mem.VAddr(i)*mem.PageSize)
	}
	const geom = "level geometry, fixed at construction"
	const pred = "way predictor: caches a location only, dropped by Fork"
	walktest.Check(t, tl, (*TLB).Fork, (*TLB).StateHash, walktest.Attached{
		"cfg":     "configuration, fixed at construction",
		"l1.ways": geom, "l1.setMask": geom, "stlb.ways": geom, "stlb.setMask": geom,
		"predAsid": pred, "predVpn": pred, "predIdx": pred, "predOK": pred,
	})
}

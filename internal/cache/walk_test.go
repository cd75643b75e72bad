package cache

import (
	"testing"

	"afterimage/internal/mem"
	"afterimage/internal/walktest"
)

// TestCacheWalkCoverage: under every replacement policy, every Cache and
// Policies field is either walked (so forked and hashed) or on the
// attachment/geometry list. The fills touch the even sets only: every
// per-set array is bumped at element 0, inside touched set 0, and bumping
// touched[0] moves set 0's mark onto untouched set 1.
func TestCacheWalkCoverage(t *testing.T) {
	const geom = "index geometry, fixed at construction"
	const pred = "way predictor: caches a location only, dropped by Fork"
	const pgeom = "replacement-engine geometry, fixed at construction"
	const masks = "Tree-PLRU touch masks, fixed at construction"
	const replay = "the generator replays from seed to draws"
	for _, k := range allPolicies {
		t.Run(k.String(), func(t *testing.T) {
			c := MustNew(small(k))
			for i := uint64(0); i < 40; i++ {
				c.Fill(mem.PAddr(i * 0x80))
			}
			if c.touched[0]&3 != 1 {
				t.Fatalf("touched[0] = %#x, want set 0 touched and set 1 not", c.touched[0])
			}
			attached := walktest.Attached{
				"cfg":     "configuration, fixed at construction",
				"nslices": geom, "nsets": geom, "ways": geom, "setsPow2": geom, "setMask": geom,
				"setMagic": geom, "linePow2": geom, "lineShift": geom,
				"predLine": pred, "predIdx": pred, "predG": pred, "predOK": pred,
				"pol.kind": pgeom, "pol.ways": pgeom, "pol.tnodes": pgeom,
				"pol.tsetM": masks, "pol.tclrM": masks,
			}
			if k == RandomPolicy {
				attached["pol.srcs[0].seed"], attached["pol.srcs[0].src"] = replay, replay
			}
			walktest.Check(t, c, (*Cache).Fork, (*Cache).StateHash, attached)
		})
	}
}

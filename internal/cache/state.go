package cache

import (
	"fmt"
	"math/bits"

	"afterimage/internal/mem"
	"afterimage/internal/statehash"
)

// lineAddr converts a physical line address back to a byte address for the
// slice/set mapping functions.
func lineAddr(line, lineSize uint64) mem.PAddr { return mem.PAddr(line * lineSize) }

// walk visits the level's state: the per-set rows of the per-way arrays,
// the valid counts and the replacement engine, then the counters. A
// hashing walk folds only the touched sets' rows. The config and the index
// geometry derived from it never change; the way predictor caches only a
// location, so Fork drops it.
func (c *Cache) walk(w statehash.Walk) {
	statehash.Own(w, &c.pol)
	w.Rows(&c.touched, len(c.vcnt), func(w statehash.Walk) {
		w.U64s(&c.lines).Bools(&c.valid).Bools(&c.prefetched).I32s(&c.vcnt)
		c.pol.Walk(w)
	})
	w.U64(c.hits).U64(c.misses).U64(c.prefetchFills).U64(c.usefulPrefetch)
}

// StateHash folds the cache's complete state — contents, replacement state
// and counters — into a stable 64-bit digest. Sets never touched are left
// out: they hold exactly what New built.
func (c *Cache) StateHash() uint64 {
	h := statehash.New()
	c.walk(h.Walk())
	return h.Sum()
}

// DenseStateHash is StateHash over every set, touched or not: the
// whole-array reference tests hold the sparse digest against.
func (c *Cache) DenseStateHash() uint64 {
	h := statehash.New()
	c.walk(h.DenseWalk())
	return h.Sum()
}

// Fork returns an independent deep copy of the cache: every walked array,
// the replacement engine (Random sources at their stream positions) and
// the counters. The way predictor is dropped; clearing it never changes
// observable state.
func (c *Cache) Fork() *Cache {
	f := *c
	f.walk(statehash.Copying())
	f.predLine, f.predIdx, f.predG, f.predOK = 0, 0, 0, false
	return &f
}

// Fork returns an independent deep copy of the whole hierarchy.
func (h *Hierarchy) Fork() *Hierarchy {
	return &Hierarchy{L1: h.L1.Fork(), L2: h.L2.Fork(), LLC: h.LLC.Fork(), Lat: h.Lat}
}

// eachTouched calls fn on every touched global set in ascending order,
// stopping when fn returns false. Every other set is as New built it: no
// valid line, replacement state at its initial value.
func (c *Cache) eachTouched(fn func(g int) bool) {
	for i, x := range c.touched {
		for ; x != 0; x &= x - 1 {
			if !fn(i*64 + bits.TrailingZeros64(x)) {
				return
			}
		}
	}
}

// Audit deep-checks the level's structural invariants: no duplicate valid
// lines within a set, every valid line resident in the slice/set its address
// maps to, and the per-set replacement policy internally consistent. It
// returns every broken rule. Only touched sets are checked: the others
// still hold New's state, which breaks no rule.
func (c *Cache) Audit() []error {
	var errs []error
	c.eachTouched(func(g int) bool {
		si, i := g/int(c.nsets), g%int(c.nsets)
		base := g * c.ways
		for w := 0; w < c.ways; w++ {
			if !c.valid[base+w] {
				continue
			}
			line := c.lines[base+w]
			p := lineAddr(line, c.cfg.LineSize)
			if got := c.SliceOf(p); got != si {
				errs = append(errs, fmt.Errorf("cache %q: slice %d set %d way %d holds line %#x which maps to slice %d", c.cfg.Name, si, i, w, line, got))
			}
			if got := c.SetOf(p); got != uint64(i) {
				errs = append(errs, fmt.Errorf("cache %q: slice %d set %d way %d holds line %#x which maps to set %d", c.cfg.Name, si, i, w, line, got))
			}
			for w2 := w + 1; w2 < c.ways; w2++ {
				if c.valid[base+w2] && c.lines[base+w2] == line {
					errs = append(errs, fmt.Errorf("cache %q: slice %d set %d holds line %#x in ways %d and %d", c.cfg.Name, si, i, line, w, w2))
				}
			}
		}
		if err := c.pol.Audit(g); err != nil {
			errs = append(errs, fmt.Errorf("cache %q: slice %d set %d policy: %w", c.cfg.Name, si, i, err))
		}
		return true
	})
	return errs
}

// VisitLines calls fn for every valid physical line address in the cache,
// stopping early if fn returns false. Iteration order is slice-major and
// deterministic; untouched sets hold no valid line and are skipped.
func (c *Cache) VisitLines(fn func(line uint64) bool) {
	c.eachTouched(func(g int) bool {
		for i := g * c.ways; i < (g+1)*c.ways; i++ {
			if c.valid[i] && !fn(c.lines[i]) {
				return false
			}
		}
		return true
	})
}

package statehash

import (
	"slices"
	"testing"
)

type rec struct{ a, b uint64 }

type comp struct {
	n     uint64
	words []uint64
	flags []bool
	cnts  []int32
	recs  []rec
	sub   *comp
}

func (c *comp) walk(w Walk) {
	w.U64(c.n).U64s(&c.words).Bools(&c.flags).I32s(&c.cnts)
	Each(w, &c.recs, func(r *rec) { w.U64(r.a).U64(r.b) })
	if c.sub != nil {
		Own(w, &c.sub)
		c.sub.walk(w)
	}
}

func (c *comp) hash() uint64 {
	h := New()
	c.walk(h.Walk())
	return h.Sum()
}

// TestWalkCopiesAndHashes: a copying walk over a shallow copy leaves no
// slice or owned pointer shared with the original, and a hashing walk
// sees every visited field.
func TestWalkCopiesAndHashes(t *testing.T) {
	orig := &comp{n: 1, words: []uint64{2, 3}, flags: []bool{true}, cnts: []int32{-4},
		recs: []rec{{5, 6}}, sub: &comp{words: []uint64{7}}}
	want := orig.hash()
	mutations := []func(c *comp){
		func(c *comp) { c.n++ },
		func(c *comp) { c.words[1]++ },
		func(c *comp) { c.flags[0] = false },
		func(c *comp) { c.cnts[0]++ },
		func(c *comp) { c.recs[0].b++ },
		func(c *comp) { c.sub.words[0]++ },
		func(c *comp) { c.recs = append(c.recs, rec{}) },
	}
	for i, mutate := range mutations {
		f := *orig
		f.walk(Copying())
		if f.hash() != want {
			t.Fatalf("mutation %d: copy hashes differently before mutating", i)
		}
		mutate(&f)
		if f.hash() == want {
			t.Errorf("mutation %d: hash did not move", i)
		}
		if orig.hash() != want || !slices.Equal(orig.words, []uint64{2, 3}) {
			t.Fatalf("mutation %d: leaked into the original", i)
		}
	}
}

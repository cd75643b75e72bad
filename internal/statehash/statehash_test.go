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

// grid is a component with two rows of per-row state and a row bitmap.
type grid struct {
	marks []uint64
	cells []uint64 // two per row
	flags []bool   // one per row
}

func (g *grid) walk(w Walk) {
	w.Rows(&g.marks, 2, func(w Walk) { w.U64s(&g.cells).Bools(&g.flags) })
}

func (g *grid) hash(dense bool) uint64 {
	h := New()
	if dense {
		g.walk(h.DenseWalk())
	} else {
		g.walk(h.Walk())
	}
	return h.Sum()
}

// TestRowsFoldMarkedRows: the sparse fold sees every change inside a marked
// row and every change of the marks, and skips unmarked rows; the dense
// fold sees both rows; a copying walk shares nothing with the original.
func TestRowsFoldMarkedRows(t *testing.T) {
	orig := &grid{marks: []uint64{0b10}, cells: []uint64{1, 2, 3, 4}, flags: []bool{false, true}}
	sparse, dense := orig.hash(false), orig.hash(true)
	cases := []struct {
		name        string
		mutate      func(g *grid)
		sparseMoves bool
		denseMoves  bool
	}{
		{"marked row cell", func(g *grid) { g.cells[3]++ }, true, true},
		{"marked row flag", func(g *grid) { g.flags[1] = false }, true, true},
		{"unmarked row cell", func(g *grid) { g.cells[0]++ }, false, true},
		{"unmarked row flag", func(g *grid) { g.flags[0] = true }, false, true},
		{"mark another row", func(g *grid) { g.marks[0] |= 1 }, true, false},
		{"move the mark", func(g *grid) { g.marks[0] = 1 }, true, false},
	}
	for _, tc := range cases {
		f := *orig
		f.walk(Copying())
		tc.mutate(&f)
		if moved := f.hash(false) != sparse; moved != tc.sparseMoves {
			t.Errorf("%s: sparse digest moved %v, want %v", tc.name, moved, tc.sparseMoves)
		}
		if moved := f.hash(true) != dense; moved != tc.denseMoves {
			t.Errorf("%s: dense digest moved %v, want %v", tc.name, moved, tc.denseMoves)
		}
		if orig.hash(false) != sparse || orig.hash(true) != dense || orig.marks[0] != 0b10 {
			t.Fatalf("%s: leaked into the original", tc.name)
		}
	}
}

// TestBoolsPacksBitPerElement: the word-at-a-time bool fold equals folding
// each 64-element chunk packed one bool per bit, for every length around
// the 8- and 64-element boundaries.
func TestBoolsPacksBitPerElement(t *testing.T) {
	for n := 0; n <= 200; n++ {
		vs := make([]bool, n)
		for i := range vs {
			vs[i] = (i*7+n)%3 == 0
		}
		want := New()
		want.prefix(n)
		for lo := 0; lo < n; lo += 64 {
			var packed uint64
			for i := lo; i < min(n, lo+64); i++ {
				if vs[i] {
					packed |= 1 << uint(i-lo)
				}
			}
			want.word(packed)
		}
		if got := New().Bools(vs).Sum(); got != want.Sum() {
			t.Fatalf("n=%d: Bools %#x, per-bit packing %#x", n, got, want.Sum())
		}
	}
}

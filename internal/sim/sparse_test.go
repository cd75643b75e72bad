package sim

import (
	"math/rand"
	"testing"

	"afterimage/internal/cache"
	"afterimage/internal/statehash"
)

// denseStateHash is StateHash with every cache level folded whole, each set
// included whether or not it was ever filled: the reference the sparse
// digest is held against.
func denseStateHash(m *Machine) uint64 {
	hashes := m.ComponentHashes()
	hashes["cache.l1"] = m.Mem.L1.DenseStateHash()
	hashes["cache.l2"] = m.Mem.L2.DenseStateHash()
	hashes["cache.llc"] = m.Mem.LLC.DenseStateHash()
	h := statehash.New()
	for _, name := range componentOrder {
		h.Str(name).Combine(hashes[name])
	}
	return h.Sum()
}

// TestSparseDigestAgreesWithDense: over the fork property programs, the
// sparse digest (touched cache sets only) and the dense digest (every set)
// agree on equality for every pair among the parent, its forks and the
// fresh solo runs, both per cache level and for the whole machine. Each
// seed's pairs include equal ones (a fork and its solo run) and unequal
// ones (forks running different programs).
func TestSparseDigestAgreesWithDense(t *testing.T) {
	seeds := int64(8)
	if testing.Short() {
		seeds = 2
	}
	type digests struct{ sparse, dense [4]uint64 }
	digest := func(m *Machine) digests {
		var d digests
		for i, c := range []*cache.Cache{m.Mem.L1, m.Mem.L2, m.Mem.LLC} {
			d.sparse[i], d.dense[i] = c.StateHash(), c.DenseStateHash()
		}
		d.sparse[3], d.dense[3] = m.StateHash(), denseStateHash(m)
		return d
	}
	var equal, unequal int
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		parent := newForkRig(seed)
		all := []digests{digest(parent.m)}
		for i := 0; i < 3; i++ {
			prog := genForkProgram(rng, 30+rng.Intn(90))
			fm, err := parent.m.Fork()
			if err != nil {
				t.Fatal(err)
			}
			fork, err := parent.rebind(fm)
			if err != nil {
				t.Fatal(err)
			}
			ref := newForkRig(seed)
			for _, op := range prog {
				fork.exec(op)
				ref.exec(op)
			}
			all = append(all, digest(fork.m), digest(ref.m))
		}
		for a := range all {
			for b := a + 1; b < len(all); b++ {
				for k := range all[a].sparse {
					sparseEq := all[a].sparse[k] == all[b].sparse[k]
					denseEq := all[a].dense[k] == all[b].dense[k]
					if sparseEq != denseEq {
						t.Fatalf("seed %d, machines %d and %d, component %d: sparse equal %v, dense equal %v",
							seed, a, b, k, sparseEq, denseEq)
					}
					if denseEq {
						equal++
					} else {
						unequal++
					}
				}
			}
		}
	}
	if equal == 0 || unequal == 0 {
		t.Fatalf("%d equal and %d unequal pairs: the programs exercised only one side", equal, unequal)
	}
}

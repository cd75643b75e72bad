package sim

import (
	"maps"
	"math/rand"

	"afterimage/internal/statehash"
)

// Component-hash keys, in the fixed order StateHash combines them.
var componentOrder = []string{"cache.l1", "cache.l2", "cache.llc", "tlb", "prefetcher", "machine"}

// ComponentHashes returns the stable per-component state digests. The
// "machine" component covers what Machine.walk visits.
func (m *Machine) ComponentHashes() map[string]uint64 {
	return map[string]uint64{
		"cache.l1":   m.Mem.L1.StateHash(),
		"cache.l2":   m.Mem.L2.StateHash(),
		"cache.llc":  m.Mem.LLC.StateHash(),
		"tlb":        m.TLB.StateHash(),
		"prefetcher": m.Pref.StateHash(),
		"machine":    m.machineHash(),
	}
}

// walk visits the machine-level state: the clock, the scheduler and SMT
// counters, the jitter and noise RNG positions, the kernel noise region,
// the physical frame allocator, and the kernel's and every process's
// address space. It is the only place that names that state;
// machineHash and Fork derive from it. The cache hierarchy, TLB and
// prefetcher suite have walks and digests of their own, and PIDs and
// names are fixed labels.
func (m *Machine) walk(w statehash.Walk) {
	w.U64(m.clock).U64(m.domainSwitches).U64(m.syscallCount).I64(int64(m.smtOps))
	w.Source(&m.jitterSrc).Source(&m.noiseSrc)
	w.U64(uint64(m.noiseBase)).U64(m.noiseLen)
	statehash.Own(w, &m.Phys)
	m.Phys.Walk(w)
	space := func(p **Process) {
		statehash.Own(w, p)
		statehash.Own(w, &(*p).AS)
		(*p).AS.Walk(w, m.Phys)
	}
	space(&m.Kernel)
	statehash.Each(w, &m.procs, space)
	if w.Copies() {
		m.jitter, m.noise = rand.New(m.jitterSrc), rand.New(m.noiseSrc)
		// The handlers are driver-installed funcs, shared and unhashed;
		// only the table is private to the copy.
		m.syscalls = maps.Clone(m.syscalls)
	}
}

// machineHash digests the machine-level state.
func (m *Machine) machineHash() uint64 {
	h := statehash.New()
	m.walk(h.Walk())
	return h.Sum()
}

// StateHash folds every component digest, in fixed order, into one 64-bit
// machine-state hash — the value the replay harness compares point by point.
func (m *Machine) StateHash() uint64 {
	hashes := m.ComponentHashes()
	h := statehash.New()
	for _, name := range componentOrder {
		h.Str(name).Combine(hashes[name])
	}
	return h.Sum()
}

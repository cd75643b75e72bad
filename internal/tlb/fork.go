package tlb

// Fork support: deep-copy the TLB for Machine.Fork. ASIDs are allocated per
// machine and forked address spaces keep theirs, so entries copy verbatim —
// including stale tags in invalid slots and corrupted entries, which must
// survive the fork for the coherence checker to flag.

// fork deep-copies one translation array.
func (l *level) fork() *level {
	return &level{
		ways:    l.ways,
		setMask: l.setMask,
		asids:   append([]uint64(nil), l.asids...),
		vpns:    append([]uint64(nil), l.vpns...),
		valid:   append([]bool(nil), l.valid...),
		stamps:  append([]uint64(nil), l.stamps...),
		clocks:  append([]uint64(nil), l.clocks...),
	}
}

// Fork returns an independent deep copy. The way predictor is dropped: it
// caches only a location, so clearing it never changes observable state.
func (t *TLB) Fork() *TLB {
	f := &TLB{
		cfg:      t.cfg,
		l1:       t.l1.fork(),
		hits:     t.hits,
		misses:   t.misses,
		stlbHits: t.stlbHits,
	}
	if t.stlb != nil {
		f.stlb = t.stlb.fork()
	}
	return f
}

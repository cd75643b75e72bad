package main

import (
	"context"
	"fmt"
	"time"

	"afterimage"
)

// The rsa workload: one §7.3 key extraction per operation on a fresh lab.
// No fork, audit or state hash runs here — host time goes to the per-load
// path, the scheduler's domain switches and bignum.

// rsaExtract runs pool entry idx and returns the result, the lab's metrics
// and the operation's time in ms. rec may be nil (untraced).
func rsaExtract(idx int, rec *recorder, op string) (afterimage.RSAResult, afterimage.MetricsSnapshot, float64, error) {
	c := cpuTime()
	root := rec.begin("rsa", "rsa.op", op, 0, tidRSA)
	id := rec.begin("rsa", "lab", op, root, tidRSA)
	lab, err := afterimage.NewLabE(afterimage.Options{Model: afterimage.CoffeeLake, Seed: int64(idx)})
	rec.end(id)
	if err != nil {
		rec.end(root)
		return afterimage.RSAResult{}, afterimage.MetricsSnapshot{}, 0, err
	}
	id = rec.begin("rsa", "extract", op, root, tidRSA)
	r, err := lab.ExtractRSAKeyE(afterimage.RSAOptions{KeyBits: 32})
	rec.end(id)
	rec.end(root)
	ms := cpuMSSince(c)
	return r, lab.MetricsSnapshot(), ms, err
}

func rsaOutcome(r afterimage.RSAResult) rsaPin {
	return rsaPin{
		BitsCorrect: r.BitsCorrect, BitsTotal: r.BitsTotal,
		ObservationOK: r.ObservationOK, Observations: r.Observations,
		Cycles: r.Cycles, Decryptions: r.Decryptions, Recovered: r.Recovered.String(),
	}
}

type rsaBench struct {
	e *env
	// Per-operation accumulators of traced passes.
	loads, switches, l1hit, prefetches []float64
	shares                             map[string]float64
}

// rsaLayers are the packages whose self time the ledger reports.
var rsaLayers = []string{"sim", "cache", "tlb", "prefetcher", "telemetry", "bignum"}

// openRSA's set-up is one lab.
func openRSA(e *env) (instance, error) {
	if _, err := afterimage.NewLabE(afterimage.Options{Model: afterimage.CoffeeLake, Seed: e.seed}); err != nil {
		return nil, err
	}
	return &rsaBench{e: e}, nil
}

func (b *rsaBench) close() {}

func (b *rsaBench) measure(ctx context.Context, deadline time.Time, minOps, maxOps int, rec *recorder) *pass {
	p := &pass{}
	var prof *cpuProfile
	if rec != nil {
		var err error
		if prof, err = startCPUProfile(); err != nil {
			p.fail("rsa: cpu profile: %v", err)
		}
	}
	var psc, bits []float64
	closedLoop(ctx, deadline, minOps, maxOps, p, func(i int) (float64, bool) {
		idx := poolIndex(b.e.seed, i, rsaPool)
		r, snap, ms, err := rsaExtract(idx, rec, fmt.Sprintf("rsa/%d", i))
		if err != nil {
			p.fail("rsa op %d (pool %d): %v", i, idx, err)
			return 0, false
		}
		if got := rsaOutcome(r); got != b.e.pins.RSA[idx] {
			p.fail("rsa op %d (pool %d): outcome %+v, pinned %+v", i, idx, got, b.e.pins.RSA[idx])
			return 0, false
		}
		loads := float64(snap.Histograms["mem.load.latency"].Count)
		p.simEvents += loads
		psc = append(psc, r.PSCSuccessRate())
		bits = append(bits, r.BitSuccessRate())
		if rec != nil {
			c := snap.Counters
			b.loads = append(b.loads, loads)
			b.switches = append(b.switches, float64(c["sched.switches"]))
			b.l1hit = append(b.l1hit, float64(c["cache.l1.hits"])/float64(c["cache.l1.hits"]+c["cache.l1.misses"]))
			b.prefetches = append(b.prefetches, float64(c["prefetcher.ipstride.prefetches"]+
				c["prefetcher.dcu.issued"]+c["prefetcher.dpl.issued"]+c["prefetcher.streamer.issued"]))
		}
		return ms, true
	})
	if prof != nil {
		shares, err := prof.stop(rsaLayers)
		if err != nil {
			p.fail("rsa: cpu profile: %v", err)
		}
		b.shares = shares
	}
	if len(psc) > 0 {
		p.notes = append(p.notes, fmt.Sprintf("PSC per-observation accuracy: mean %.1f %% over %d extractions (paper 82 %%); key bits recovered: mean %.1f %% (paper: full key at <= 5 iterations/bit)",
			100*mean(psc), len(psc), 100*mean(bits)))
	}
	return p
}

func (b *rsaBench) layers(out metricSet) {
	if len(b.loads) == 0 {
		return
	}
	out.set("rsa.loads", mean(b.loads), "count")
	out.set("rsa.switches", mean(b.switches), "count")
	out.set("rsa.l1_hit_ratio", mean(b.l1hit), "ratio")
	out.set("rsa.prefetches_issued", mean(b.prefetches), "count")
	for _, l := range append(rsaLayers, "runtime", "other") {
		out.set("rsa.self_share."+l, b.shares[l], "ratio")
	}
}

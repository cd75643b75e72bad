package main

import (
	"context"
	"fmt"
	"time"

	"afterimage"
	"afterimage/internal/champsim"
	"afterimage/internal/trace"
)

// The mitigation workload: one §8.3 study per operation — 16 SPEC-like
// traces, each replayed base / mitigated / no-prefetch through the cache,
// TLB and prefetcher kernel, bypassing sim.Machine, the scheduler,
// telemetry and proof work.

const (
	mitigationInstructions = 100_000
	mitigationFlush        = 30_000 // the study's default clear-ip-prefetcher period
	mitigationSeedOffset   = 7      // RunMitigationStudy replays traces of seed+7
)

func mitigationStudy(idx int) (afterimage.MitigationResult, error) {
	return afterimage.RunMitigationStudy(afterimage.MitigationOptions{
		Instructions: mitigationInstructions, Seed: int64(idx),
	})
}

func mitigationOutcome(r afterimage.MitigationResult) [][4]float64 {
	out := make([][4]float64, len(r.Rows))
	for i, row := range r.Rows {
		out[i] = [4]float64{row.BaseIPC, row.MitigatedIPC, row.NoPrefetchIPC, row.Slowdown}
	}
	return out
}

// mitigationInstructionCount is the simulated instruction count of study
// idx: champsim charges each record Gap+1 instructions, three replays per
// application.
func mitigationInstructionCount(idx int) float64 {
	var n float64
	for _, p := range trace.SPECLike() {
		for _, r := range trace.NewGenerator(p, int64(idx)+mitigationSeedOffset).Generate(mitigationInstructions) {
			n += 3 * float64(r.Gap+1)
		}
	}
	return n
}

type mitigationBench struct {
	e *env
	// Per-operation accumulators of traced passes.
	tracegen, build, replay []float64
	fills, useful           float64
	loads, misses           float64
	shares                  map[string]float64
}

var mitigationLayers = []string{"cache", "tlb", "prefetcher", "champsim", "trace"}

// openMitigation's set-up is one simulator of the study's configuration.
func openMitigation(e *env) (instance, error) {
	if _, err := champsim.New(champsim.DefaultConfig()); err != nil {
		return nil, err
	}
	return &mitigationBench{e: e}, nil
}

func (b *mitigationBench) close() {}

func (b *mitigationBench) measure(ctx context.Context, deadline time.Time, minOps, maxOps int, rec *recorder) *pass {
	p := &pass{}
	var prof *cpuProfile
	if rec != nil {
		var err error
		if prof, err = startCPUProfile(); err != nil {
			p.fail("mitigation: cpu profile: %v", err)
		}
	}
	var done []int
	var top8, overall []float64
	closedLoop(ctx, deadline, minOps, maxOps, p, func(i int) (float64, bool) {
		idx := poolIndex(b.e.seed, i, mitigationPool)
		var (
			rows []afterimage.MitigationAppRow
			t8   float64
			all  float64
			ms   float64
		)
		if rec == nil {
			c := cpuTime()
			r, err := mitigationStudy(idx)
			ms = cpuMSSince(c)
			if err != nil || len(r.Degraded) > 0 {
				p.fail("mitigation op %d (pool %d): %v, degraded %v", i, idx, err, r.Degraded)
				return 0, false
			}
			rows, t8, all = r.Rows, r.Top8Slowdown, r.OverallSlowdown
		} else {
			var err error
			rows, t8, all, ms, err = b.recompose(rec, i, idx)
			if err != nil {
				p.fail("mitigation op %d (pool %d): %v", i, idx, err)
				return 0, false
			}
		}
		got := mitigationOutcome(afterimage.MitigationResult{Rows: rows})
		if !samePin(got, b.e.pins.Mitigation[idx]) {
			p.fail("mitigation op %d (pool %d): rows %v, pinned %v", i, idx, got, b.e.pins.Mitigation[idx])
			return 0, false
		}
		done = append(done, idx)
		top8, overall = append(top8, t8), append(overall, all)
		return ms, true
	})
	if prof != nil {
		shares, err := prof.stop(mitigationLayers)
		if err != nil {
			p.fail("mitigation: cpu profile: %v", err)
		}
		b.shares = shares
	}
	// Counted after the loop so the count does not load the measured time.
	for _, idx := range done {
		p.simEvents += mitigationInstructionCount(idx)
	}
	if len(done) > 0 {
		p.notes = append(p.notes, fmt.Sprintf("slowdown: top-8 %.2f %%, overall %.2f %% (mean over %d studies; paper 0.7 %% and 0.2 %%)",
			100*mean(top8), 100*mean(overall), len(done)))
	}
	return p
}

// recompose rebuilds one study from champsim and trace calls with a span
// around each: trace generation, building the base simulator and its two
// forks, and each replay.
func (b *mitigationBench) recompose(rec *recorder, i, idx int) ([]afterimage.MitigationAppRow, float64, float64, float64, error) {
	op := fmt.Sprintf("mitigation/%d", i)
	c := cpuTime()
	root := rec.begin("mitigation", "mitigation.op", op, 0, tidMitigation)
	span := func(name string) int { return rec.begin("mitigation", name, op, root, tidMitigation) }
	cfg := champsim.DefaultConfig()
	var gen, build, replay float64
	var rows []afterimage.MitigationAppRow
	var results []champsim.AppResult
	for _, prof := range trace.SPECLike() {
		id := span("tracegen")
		recs := trace.NewGenerator(prof, int64(idx)+mitigationSeedOffset).Generate(mitigationInstructions)
		gen += rec.end(id)

		id = span("build")
		base, err := champsim.New(cfg)
		if err != nil {
			rec.end(id)
			rec.end(root)
			return nil, 0, 0, 0, err
		}
		mit := base.Fork()
		mit.SetFlushInterval(mitigationFlush)
		nop := base.Fork()
		nop.DisableIPStride()
		build += rec.end(id)

		r := champsim.AppResult{Profile: prof}
		id = span("replay.base")
		r.Base = base.Run(recs)
		replay += rec.end(id)
		id = span("replay.mitigated")
		r.Mitigated = mit.Run(recs)
		replay += rec.end(id)
		id = span("replay.noprefetch")
		r.NoPrefetch = nop.Run(recs)
		replay += rec.end(id)

		results = append(results, r)
		rows = append(rows, afterimage.MitigationAppRow{
			Name: prof.Name, Sensitive: prof.PrefetchSensitive(),
			BaseIPC: r.Base.IPC(), MitigatedIPC: r.Mitigated.IPC(), NoPrefetchIPC: r.NoPrefetch.IPC(),
			Slowdown: r.Slowdown(), PrefetchBenefit: r.PrefetchBenefit(),
		})
		b.fills += float64(r.Base.PrefetchFills)
		b.useful += float64(r.Base.UsefulPrefetch)
		b.loads += float64(r.Base.Loads)
		b.misses += float64(r.Base.LoadMisses)
	}
	top8, overall := champsim.Summary(results, 8)
	rec.end(root)
	ms := cpuMSSince(c)
	b.tracegen = append(b.tracegen, gen)
	b.build = append(b.build, build)
	b.replay = append(b.replay, replay)
	return rows, top8, overall, ms, nil
}

func (b *mitigationBench) layers(out metricSet) {
	if len(b.replay) == 0 {
		return
	}
	out.set("mitigation.tracegen_ms", median(b.tracegen), "ms")
	out.set("mitigation.build_ms", median(b.build), "ms")
	out.set("mitigation.replay_ms", median(b.replay), "ms")
	out.set("mitigation.prefetch_accuracy", b.useful/b.fills, "ratio")
	out.set("mitigation.load_miss_ratio", b.misses/b.loads, "ratio")
	for _, l := range append(mitigationLayers, "runtime", "other") {
		out.set("mitigation.self_share."+l, b.shares[l], "ratio")
	}
}

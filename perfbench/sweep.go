package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"

	"afterimage"
	"afterimage/internal/faults"
	"afterimage/internal/runner"
	"afterimage/internal/sim"
)

// The sweep workload: one fault-sweep campaign per operation, exactly as a
// default CampaignSpec runs it — the unit of work behind every service
// cache miss.

var sweepIntensities = []float64{0, 0.5, 1, 2, 4}

// sweepAttacks is the order operations cycle through, with the lab-seed
// offset RunFaultSweepCtx applies per attack (aligning each attack with its
// Table 3 run).
var sweepAttacks = []struct {
	a      afterimage.SweepAttack
	offset int64
	paper  string // EXPERIMENTS.md, for information only
}{
	{afterimage.SweepV1Thread, 0, "99 %"},
	{afterimage.SweepV1Process, 1, "97 %"},
	{afterimage.SweepV2Kernel, 2, "91 %"},
	{afterimage.SweepCovert, 5, "> 94 % (1-entry error < 6 %)"},
}

// sweepCampaign runs pool entry idx the way the service executes a miss: a
// cold lab, then one RunFaultSweepCtx with the default spec's options.
func sweepCampaign(idx int) (afterimage.SweepResult, []byte, error) {
	lab, err := afterimage.NewLabE(afterimage.Options{Model: afterimage.CoffeeLake, Seed: int64(idx)})
	if err != nil {
		return afterimage.SweepResult{}, nil, err
	}
	res, err := lab.RunFaultSweepCtx(context.Background(), afterimage.SweepOptions{
		Attack: sweepAttacks[idx%len(sweepAttacks)].a, Bits: 32, Intensities: sweepIntensities,
	})
	if err != nil {
		return res, nil, err
	}
	body, err := res.JSON()
	return res, body, err
}

func sweepOutcome(res afterimage.SweepResult) [][4]float64 {
	out := make([][4]float64, len(res.Points))
	for i, p := range res.Points {
		out[i] = [4]float64{p.SuccessRate, p.MeanConfidence, float64(p.Cycles), float64(p.FaultEvents)}
	}
	return out
}

func samePin(a, b [][4]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

type sweepBench struct {
	e *env
	// bodies holds each untraced operation's result JSON by operation
	// index: the traced re-composition must reproduce it byte for byte.
	bodies map[int][]byte
	// Per-point accumulators of traced passes (ms and counts).
	boot, fork, attack, audit, hash, pointMS []float64
	loads, switches, events                  []float64
}

// openSweep's set-up is the template lab a campaign builds first.
func openSweep(e *env) (instance, error) {
	if _, err := afterimage.NewLabE(afterimage.Options{Model: afterimage.CoffeeLake, Seed: e.seed}); err != nil {
		return nil, err
	}
	return &sweepBench{e: e, bodies: map[int][]byte{}}, nil
}

func (s *sweepBench) close() {}

func (s *sweepBench) measure(ctx context.Context, deadline time.Time, minOps, maxOps int, rec *recorder) *pass {
	p := &pass{}
	zero := make([][]float64, len(sweepAttacks)) // success at intensity 0
	closedLoop(ctx, deadline, minOps, maxOps, p, func(i int) (float64, bool) {
		idx := poolIndex(s.e.seed, i, sweepPool)
		var (
			res  afterimage.SweepResult
			body []byte
			ms   float64
			err  error
		)
		if rec == nil {
			c := cpuTime()
			res, body, err = sweepCampaign(idx)
			ms = cpuMSSince(c)
		} else {
			res, body, ms, err = s.recompose(rec, i, idx)
		}
		if err != nil {
			p.fail("sweep op %d (pool %d): %v", i, idx, err)
			return 0, false
		}
		if got := sweepOutcome(res); !samePin(got, s.e.pins.Sweep[idx]) {
			p.fail("sweep op %d (pool %d): outcome %v, pinned %v", i, idx, got, s.e.pins.Sweep[idx])
			return 0, false
		}
		if rec == nil {
			s.bodies[i] = body
		} else if want, ok := s.bodies[i]; !ok || !bytes.Equal(body, want) {
			p.fail("sweep op %d (pool %d): traced re-composition differs from RunFaultSweepCtx", i, idx)
			return 0, false
		}
		for _, pt := range res.Points {
			p.simEvents += float64(pt.Cycles)
		}
		a := idx % len(sweepAttacks)
		zero[a] = append(zero[a], res.Points[0].SuccessRate)
		return ms, true
	})
	for a, xs := range zero {
		if len(xs) > 0 {
			p.notes = append(p.notes, fmt.Sprintf("%-10s success at intensity 0: mean %.1f %% over %d campaigns (paper %s)",
				sweepAttacks[a].a, 100*mean(xs), len(xs), sweepAttacks[a].paper))
		}
	}
	return p
}

// recompose rebuilds one campaign from public calls, with a span around
// each: the caller's lab, the template, then per point Fork, InjectFaults,
// the Run*E attack, Machine().Audit() and Machine().StateHash(), retried the
// way the supervised runner retries. It returns the operation's time; the
// fresh-boot pairing (NewLab per point) runs after the operation span.
func (s *sweepBench) recompose(rec *recorder, i, idx int) (afterimage.SweepResult, []byte, float64, error) {
	op := fmt.Sprintf("sweep/%d", i)
	atk := sweepAttacks[idx%len(sweepAttacks)]
	labOpts := afterimage.Options{Model: afterimage.CoffeeLake, Seed: int64(idx) + atk.offset}
	c := cpuTime()
	root := rec.begin("sweep", "sweep.op", op, 0, tidSweep)
	span := func(name string) int { return rec.begin("sweep", name, op, root, tidSweep) }

	id := span("lab")
	parent, err := afterimage.NewLabE(afterimage.Options{Model: afterimage.CoffeeLake, Seed: int64(idx)})
	rec.end(id)
	if err != nil {
		rec.end(root)
		return afterimage.SweepResult{}, nil, 0, err
	}
	id = span("template")
	tmpl, err := afterimage.NewLabE(labOpts)
	rec.end(id)
	if err != nil {
		rec.end(root)
		return afterimage.SweepResult{}, nil, 0, err
	}
	res := afterimage.SweepResult{Attack: atk.a.String(), Model: parent.ModelName()}
	var labs []*afterimage.Lab
	for k, x := range sweepIntensities {
		key := fmt.Sprintf("%s/%02d@%g", atk.a, k, x) // the runner's job key
		var history []string
		var pt afterimage.SweepPoint
		for attempt := 0; ; attempt++ {
			var lab *afterimage.Lab
			pt, lab, err = s.point(rec, span, tmpl, labOpts, atk.a, x, attempt)
			if lab != nil {
				labs = append(labs, lab)
			}
			if err == nil {
				pt.Attempts = attempt + 1
				break
			}
			if pt.FaultKind != "" {
				history = append(history, pt.FaultKind)
			}
			if runner.DefaultClassify(err) == runner.ClassTransient && attempt+1 < runner.DefaultMaxAttempts {
				id := span("backoff")
				time.Sleep(runner.Delay(runner.DefaultBackoffBase, runner.DefaultBackoffMax, labOpts.Seed, key, attempt))
				rec.end(id)
				continue
			}
			pt.Attempts, pt.Degraded = attempt+1, true
			break
		}
		if pt.Attempts == 1 {
			pt.Attempts = 0 // recorded only when retried
		}
		for _, h := range history {
			pt.Quarantined = pt.Quarantined || h == sim.FaultCorruption.String()
		}
		// The runner carries point values as JSON; round-trip the same way.
		raw, err := json.Marshal(pt)
		if err != nil {
			rec.end(root)
			return res, nil, 0, err
		}
		back := afterimage.SweepPoint{Intensity: x}
		if err := json.Unmarshal(raw, &back); err != nil {
			rec.end(root)
			return res, nil, 0, err
		}
		res.Points = append(res.Points, back)
	}
	body, err := res.JSON()
	rec.end(root)
	ms := cpuMSSince(c)

	for range sweepIntensities {
		id := rec.begin("sweep", "boot", op, 0, tidSweep)
		_, berr := afterimage.NewLabE(labOpts)
		s.boot = append(s.boot, rec.end(id))
		if berr != nil && err == nil {
			err = berr
		}
	}
	for _, lab := range labs {
		snap := lab.MetricsSnapshot()
		s.loads = append(s.loads, float64(snap.Histograms["mem.load.latency"].Count))
		s.switches = append(s.switches, float64(snap.Counters["sched.switches"]))
	}
	for _, pt := range res.Points {
		s.events = append(s.events, float64(pt.FaultEvents))
	}
	return res, body, ms, err
}

// point is one attempt of one sweep point, mirroring the library's
// per-point execution.
func (s *sweepBench) point(rec *recorder, span func(string) int, tmpl *afterimage.Lab, labOpts afterimage.Options,
	a afterimage.SweepAttack, x float64, attempt int) (afterimage.SweepPoint, *afterimage.Lab, error) {
	pt := afterimage.SweepPoint{Intensity: x}
	id := span("fork")
	lab, err := tmpl.Fork()
	forkMS := rec.end(id)
	if err != nil {
		pt.Err = err.Error()
		return pt, nil, err
	}
	lab.ArmCancel(context.Background())

	id = span("inject")
	var eng *faults.Engine
	if x > 0 {
		eng = lab.InjectFaults(faults.Config{Intensity: x, Seed: labOpts.Seed + 811 + int64(attempt)*7919})
	}
	injectMS := rec.end(id)

	id = span("attack")
	switch a {
	case afterimage.SweepV1Process:
		var r afterimage.LeakResult
		r, err = lab.RunVariant1E(afterimage.V1Options{Bits: 32, CrossProcess: true})
		pt.SuccessRate, pt.MeanConfidence, pt.Cycles = r.SuccessRate(), r.MeanConfidence(), r.Cycles
	case afterimage.SweepV2Kernel:
		var r afterimage.V2Result
		r, err = lab.RunVariant2E(afterimage.V2Options{Bits: 32})
		pt.SuccessRate, pt.MeanConfidence, pt.Cycles = r.SuccessRate(), r.MeanConfidence(), r.Cycles
	case afterimage.SweepCovert:
		var r afterimage.CovertResult
		r, err = lab.RunCovertChannelE(afterimage.CovertOptions{Message: make([]byte, 32)})
		pt.SuccessRate, pt.Cycles = 1-r.ErrorRate(), r.Cycles
	default:
		var r afterimage.LeakResult
		r, err = lab.RunVariant1E(afterimage.V1Options{Bits: 32})
		pt.SuccessRate, pt.MeanConfidence, pt.Cycles = r.SuccessRate(), r.MeanConfidence(), r.Cycles
	}
	attackMS := rec.end(id)

	var auditMS float64
	if err == nil {
		id = span("audit")
		err = lab.Machine().Audit()
		auditMS = rec.end(id)
	}
	if err != nil {
		pt.Err = err.Error()
		if f, ok := afterimage.AsFault(err); ok {
			pt.FaultKind = f.Kind.String()
		}
	}
	if eng != nil {
		pt.FaultEvents = eng.Stats().Total
	}
	id = span("statehash")
	pt.StateHash = lab.Machine().StateHash()
	hashMS := rec.end(id)
	pt.Phases = lab.PhaseSummaries()

	s.fork = append(s.fork, forkMS)
	s.attack = append(s.attack, attackMS)
	s.audit = append(s.audit, auditMS)
	s.hash = append(s.hash, hashMS)
	s.pointMS = append(s.pointMS, forkMS+injectMS+attackMS+auditMS+hashMS)
	return pt, lab, err
}

func (s *sweepBench) layers(out metricSet) {
	if len(s.pointMS) == 0 {
		return
	}
	out.set("sweep.boot_ms", median(s.boot), "ms")
	out.set("sweep.fork_ms", median(s.fork), "ms")
	out.set("sweep.attack_ms", median(s.attack), "ms")
	out.set("sweep.audit_ms", median(s.audit), "ms")
	out.set("sweep.statehash_ms", median(s.hash), "ms")
	out.set("sweep.proof_share", (sum(s.audit)+sum(s.hash))/sum(s.pointMS), "ratio")
	out.set("sweep.loads", mean(s.loads), "count")
	out.set("sweep.switches", mean(s.switches), "count")
	out.set("sweep.fault_events", mean(s.events), "count")
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

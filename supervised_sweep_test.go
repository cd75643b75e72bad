package afterimage

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"

	"afterimage/internal/faults"
	"afterimage/internal/runner"
)

// smallSweep is the campaign every supervised-sweep test runs: small enough
// to stay fast, three points so order and parallelism matter, and enough
// injected noise that the curve is not trivially flat.
func smallSweep() SweepOptions {
	return SweepOptions{
		Attack:      SweepV1Thread,
		Bits:        12,
		Intensities: []float64{0, 1, 3},
		Faults:      faults.Config{EventsPerMCycle: 200},
	}
}

// TestSweepParallelMatchesSequentialByteIdentical: the acceptance criterion —
// for a fixed seed, the curve's JSON is byte-identical whether the points run
// on one worker or eight.
func TestSweepParallelMatchesSequentialByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run sweep comparison is slow")
	}
	run := func(workers int) []byte {
		o := smallSweep()
		o.Runner = runner.Options{Workers: workers}
		res, err := NewLab(Options{Seed: 5}).RunFaultSweepCtx(context.Background(), o)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		raw, err := res.JSON()
		if err != nil {
			t.Fatalf("workers=%d: marshal: %v", workers, err)
		}
		return raw
	}
	seq := run(1)
	for _, workers := range []int{4, 8} {
		if par := run(workers); !bytes.Equal(seq, par) {
			t.Fatalf("workers=%d produced a different curve:\nseq: %s\npar: %s", workers, seq, par)
		}
	}
}

// TestSweepKillResumeByteIdentical: cancel the campaign after its first
// checkpoint write, then resume from the checkpoint — the resumed curve's
// JSON must equal a straight-through run's, and the resumed points must show
// up in the runner counters.
func TestSweepKillResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run sweep comparison is slow")
	}
	golden := func() []byte {
		res, err := NewLab(Options{Seed: 5}).RunFaultSweepCtx(context.Background(), smallSweep())
		if err != nil {
			t.Fatalf("straight-through: %v", err)
		}
		raw, _ := res.JSON()
		return raw
	}()

	path := filepath.Join(t.TempDir(), "sweep.ck.json")

	// Phase 1: kill after the first completed point.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	o := smallSweep()
	o.Runner = runner.Options{
		CheckpointPath: path,
		OnCheckpoint: func(completed int) {
			if completed >= 1 {
				cancel()
			}
		},
	}
	if _, err := NewLab(Options{Seed: 5}).RunFaultSweepCtx(ctx, o); err == nil {
		t.Fatal("killed campaign reported no error")
	}

	// Phase 2: resume on a fresh lab and context.
	lab := NewLab(Options{Seed: 5})
	o = smallSweep()
	o.Runner = runner.Options{CheckpointPath: path, Resume: true}
	res, err := lab.RunFaultSweepCtx(context.Background(), o)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	raw, _ := res.JSON()
	if !bytes.Equal(golden, raw) {
		t.Fatalf("resumed curve differs from straight-through:\nwant: %s\ngot:  %s", golden, raw)
	}
	snap := lab.MetricsSnapshot()
	if n, _ := snap.Get("runner.jobs.resumed"); n == 0 {
		t.Error("resume run recorded no runner.jobs.resumed")
	}
	if n, _ := snap.Get("runner.checkpoint.writes"); n == 0 {
		t.Error("resume run recorded no checkpoint writes")
	}
}

// TestSweepDegradedPointCompletes: the other acceptance criterion — a
// campaign with one permanently-failing point (a cycle budget only the
// high-intensity point overruns, classified permanent) finishes, marks that
// point degraded with its machine-readable fault kind, and keeps the healthy
// points intact.
func TestSweepDegradedPointCompletes(t *testing.T) {
	o := SweepOptions{
		Attack:      SweepV1Thread,
		Bits:        12,
		Intensities: []float64{0, 6},
		Faults:      faults.Config{EventsPerMCycle: 200},
		// Intensity 0 needs ~258k cycles, intensity 6 ~929k (fault stalls):
		// 500k passes the clean point and kills the stormy one.
		MaxCycles: 500_000,
		Runner: runner.Options{
			Classify: func(error) runner.Class { return runner.ClassPermanent },
		},
	}
	res, err := NewLab(Options{Seed: 42}).RunFaultSweepCtx(context.Background(), o)
	if err != nil {
		t.Fatalf("campaign aborted instead of degrading: %v", err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("got %d points, want 2", len(res.Points))
	}
	clean, stormy := res.Points[0], res.Points[1]
	if clean.Degraded || clean.Err != "" {
		t.Errorf("clean point degraded: %+v", clean)
	}
	if clean.SuccessRate < 0.5 {
		t.Errorf("clean point success %.2f, want healthy", clean.SuccessRate)
	}
	if !stormy.Degraded {
		t.Errorf("over-budget point not degraded: %+v", stormy)
	}
	if stormy.FaultKind != FaultBudget.String() {
		t.Errorf("fault kind %q, want %q (err %q)", stormy.FaultKind, FaultBudget, stormy.Err)
	}
	if stormy.Err == "" {
		t.Error("degraded point lost its human-readable error")
	}
}

// TestSweepPropagatesTelemetry: the parent lab's tracing and metrics reach
// the per-point labs — phase summaries absorbed in point order, child event
// traces appended to the parent ring, runner counters on the parent
// registry. Before the fix the per-point labs silently dropped all of it.
func TestSweepPropagatesTelemetry(t *testing.T) {
	lab := NewLab(Options{Seed: 5})
	lab.EnableTrace(0)
	o := smallSweep()
	o.Intensities = []float64{0, 1}
	res, err := lab.RunFaultSweepCtx(context.Background(), o)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	for i, p := range res.Points {
		if len(p.Phases) == 0 {
			t.Errorf("point %d carries no phase summaries", i)
		}
	}
	phases := lab.PhaseSummaries()
	if len(phases) == 0 {
		t.Fatal("parent lab absorbed no phase summaries")
	}
	var spans int
	for _, p := range phases {
		spans += p.Spans
	}
	var want int
	for _, p := range res.Points {
		for _, ph := range p.Phases {
			want += ph.Spans
		}
	}
	if spans != want {
		t.Errorf("parent phase spans %d, points carry %d", spans, want)
	}
	events := lab.Machine().Telemetry().Events()
	if len(events) == 0 {
		t.Fatal("parent trace absorbed no child events")
	}
	for i := 1; i < len(events); i++ {
		if events[i].Cycle < events[i-1].Cycle {
			t.Fatalf("absorbed trace not monotonic at %d: %d < %d", i, events[i].Cycle, events[i-1].Cycle)
		}
	}
	snap := lab.MetricsSnapshot()
	if n, _ := snap.Get("runner.jobs.started"); n != uint64(len(o.Intensities)) {
		t.Errorf("runner.jobs.started = %d, want %d", n, len(o.Intensities))
	}
	if n, _ := snap.Get("runner.jobs.completed"); n != uint64(len(o.Intensities)) {
		t.Errorf("runner.jobs.completed = %d, want %d", n, len(o.Intensities))
	}
}

// TestSweepCanceledReturnsPrefix: a canceled campaign returns the completed
// prefix and an error, never a silently-truncated "successful" curve.
func TestSweepCanceledReturnsPrefix(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before any point runs
	res, err := NewLab(Options{Seed: 5}).RunFaultSweepCtx(ctx, smallSweep())
	if err == nil {
		t.Fatal("canceled campaign reported success")
	}
	if len(res.Points) != 0 {
		t.Fatalf("canceled-before-start campaign produced %d points", len(res.Points))
	}
}

// TestSweepFingerprintStable pins the checkpoint fingerprint of the default
// v1-thread campaign (seeds 1 and 7) to the values sweeps recorded while
// SweepOptions still had a warmup option: those checkpoints all carried
// Warmup 0, and must keep resuming and replaying.
func TestSweepFingerprintStable(t *testing.T) {
	for seed, want := range map[int64]string{1: "b6595eb6c883f8eb", 7: "7433878d4c1c8faf"} {
		o, labOpts := NewLab(Options{Seed: seed}).sweepNormalize(SweepOptions{Attack: SweepV1Thread})
		if got := sweepFingerprint(labOpts, o); got != want {
			t.Errorf("seed %d: fingerprint %s, recorded checkpoints carry %s", seed, got, want)
		}
	}
}

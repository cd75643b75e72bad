package champsim

import (
	"math"
	"testing"

	"afterimage/internal/trace"
)

func TestBadConfigRejected(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Width = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("zero width accepted")
	}
}

func TestPrefetcherHelpsStridedWorkload(t *testing.T) {
	p := trace.SPECLike()[0] // libquantum-like
	records := trace.NewGenerator(p, 1).Generate(60_000)

	base, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rb := base.Run(records)

	nop, _ := New(DefaultConfig())
	nop.DisableIPStride()
	rn := nop.Run(records)

	if rb.IPC() <= rn.IPC() {
		t.Fatalf("IP-stride prefetcher did not help a strided app: %.3f vs %.3f", rb.IPC(), rn.IPC())
	}
	if rb.Prefetches == 0 {
		t.Fatal("no prefetches issued on a strided trace")
	}
}

func TestPrefetcherIrrelevantForPointerChase(t *testing.T) {
	p := trace.SPECLike()[8] // mcf-like
	records := trace.NewGenerator(p, 2).Generate(60_000)
	base, _ := New(DefaultConfig())
	rb := base.Run(records)
	nop, _ := New(DefaultConfig())
	nop.DisableIPStride()
	rn := nop.Run(records)
	gain := rb.IPC()/rn.IPC() - 1
	if gain > 0.05 {
		t.Fatalf("pointer-chase app gained %.1f%% from the prefetcher", gain*100)
	}
}

func TestMitigationFlushesAndCostsLittle(t *testing.T) {
	p := trace.SPECLike()[0]
	records := trace.NewGenerator(p, 3).Generate(120_000)
	cfg := DefaultConfig()
	base, _ := New(cfg)
	rb := base.Run(records)

	mitCfg := cfg
	mitCfg.FlushIntervalCycles = 30_000 // 10 µs at 3 GHz
	mit, _ := New(mitCfg)
	rm := mit.Run(records)

	if rm.Flushes == 0 {
		t.Fatal("mitigated run never flushed")
	}
	slow := 1 - rm.IPC()/rb.IPC()
	if slow < 0 {
		t.Fatalf("mitigation sped the core up (%.4f)", slow)
	}
	if slow > 0.05 {
		t.Fatalf("mitigation slowdown %.2f%% far above the paper's regime", slow*100)
	}
}

func TestAnalyticUpperBoundMatchesPaper(t *testing.T) {
	// §8.3: 24 entries, ~300-cycle miss, 100 µs syscall period, 3 GHz →
	// "less than 7.3 %".
	got := AnalyticUpperBound(24, 300, 100e-6, 3.0)
	if got > 0.073 || got < 0.05 {
		t.Fatalf("upper bound = %.4f, want ~0.072 (<7.3%%)", got)
	}
}

func TestStudySummaryShape(t *testing.T) {
	if testing.Short() {
		t.Skip("study is slow")
	}
	cfg := DefaultConfig()
	results, err := RunStudy(cfg, trace.SPECLike(), 60_000, 30_000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 16 {
		t.Fatalf("%d results", len(results))
	}
	top, all := Summary(results, 8)
	// The paper reports 0.7 % (top 8) and 0.2 % (all): demand the same
	// order of magnitude and ordering.
	if top < all {
		t.Fatalf("top-8 slowdown %.4f below overall %.4f", top, all)
	}
	if top <= 0 || top > 0.03 {
		t.Fatalf("top-8 slowdown %.4f outside the sub-3%% regime", top)
	}
	if all > 0.02 {
		t.Fatalf("overall slowdown %.4f too large", all)
	}
	for _, r := range results {
		if math.IsNaN(r.Slowdown()) {
			t.Fatalf("%s: NaN slowdown", r.Profile.Name)
		}
	}
}

func TestResultString(t *testing.T) {
	r := Result{Instructions: 10, Cycles: 5}
	if r.IPC() != 2 {
		t.Fatalf("IPC = %v", r.IPC())
	}
	if r.String() == "" {
		t.Fatal("empty string")
	}
	var zero Result
	if zero.IPC() != 0 {
		t.Fatal("zero-cycle IPC")
	}
}

// TestPrefetchAccuracyByWorkload: the IP-stride prefetcher is accurate on
// strided traces and near-useless on pointer chases.
func TestPrefetchAccuracyByWorkload(t *testing.T) {
	strided := trace.NewGenerator(trace.SPECLike()[0], 4).Generate(40_000)
	s, _ := New(DefaultConfig())
	rs := s.Run(strided)
	if rs.PrefetchFills == 0 {
		t.Fatal("no prefetch fills on a strided trace")
	}
	if rs.PrefetchAccuracy() < 0.5 {
		t.Fatalf("strided prefetch accuracy %.2f", rs.PrefetchAccuracy())
	}
	chase := trace.NewGenerator(trace.SPECLike()[8], 4).Generate(40_000)
	c, _ := New(DefaultConfig())
	rc := c.Run(chase)
	if rc.PrefetchAccuracy() > rs.PrefetchAccuracy() {
		t.Fatalf("pointer chase (%.2f) beat strided (%.2f) accuracy",
			rc.PrefetchAccuracy(), rs.PrefetchAccuracy())
	}
}

func TestPrefetchAccuracyZeroWhenNoFills(t *testing.T) {
	var r Result
	if r.PrefetchAccuracy() != 0 {
		t.Fatal("empty result accuracy nonzero")
	}
}

// TestRunAppMatchesFreshSimulators: RunApp forks its mitigated and
// no-prefetch variants off one pristine simulator; each must replay
// exactly as a freshly built New(cfg) with the same setting applied.
func TestRunAppMatchesFreshSimulators(t *testing.T) {
	cfg := DefaultConfig()
	const n, interval, seed = 40_000, 30_000, 7
	for _, p := range []trace.Profile{trace.SPECLike()[0], trace.SPECLike()[8]} {
		got, err := RunApp(cfg, p, n, interval, seed)
		if err != nil {
			t.Fatal(err)
		}
		records := trace.NewGenerator(p, seed).Generate(n)
		base, _ := New(cfg)
		mit, _ := New(cfg)
		mit.SetFlushInterval(interval)
		nop, _ := New(cfg)
		nop.DisableIPStride()
		want := AppResult{Profile: p, Base: base.Run(records), Mitigated: mit.Run(records), NoPrefetch: nop.Run(records)}
		if got.Base != want.Base || got.Mitigated != want.Mitigated || got.NoPrefetch != want.NoPrefetch {
			t.Fatalf("%s: RunApp %+v, fresh simulators %+v", p.Name, got, want)
		}
		if got.Mitigated.Flushes == 0 {
			t.Fatalf("%s: the mitigated run never flushed", p.Name)
		}
	}
}

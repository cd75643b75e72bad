// Package champsim is a trace-driven performance model in the spirit of the
// ChampSim simulator the paper uses for its §8.3 mitigation study: it
// replays memory-instruction traces through the real cache hierarchy, TLB
// and prefetcher suite of this repository, charges an out-of-order-aware
// cost per load, and reports IPC. The clear-ip-prefetcher mitigation is
// modelled as a periodic full flush of the IP-stride history table (the
// paper emulates flushing every 10 µs).
package champsim

import (
	"fmt"

	"afterimage/internal/cache"
	"afterimage/internal/mem"
	"afterimage/internal/prefetcher"
	"afterimage/internal/tlb"
	"afterimage/internal/trace"
)

// Config shapes the modelled core.
type Config struct {
	Hierarchy cache.HierarchyConfig
	TLB       tlb.Config
	IPStride  prefetcher.IPStrideConfig
	// Width is the superscalar issue width for non-memory instructions.
	Width int
	// MLP is the memory-level parallelism divisor applied to independent
	// load misses (an OOO core overlaps them); dependent (pointer-chase)
	// loads pay the full latency.
	MLP int
	// FlushIntervalCycles enables the clear-ip-prefetcher mitigation when
	// non-zero: the IP-stride table is flushed every interval, charging
	// one cycle per entry (§8.3's C_clear).
	FlushIntervalCycles uint64
	// GHz converts cycles to time for reporting.
	GHz float64
}

// DefaultConfig models the paper's Coffee Lake-like ChampSim setup.
func DefaultConfig() Config {
	return Config{
		Hierarchy: cache.HierarchyConfig{
			L1: cache.Config{Name: "L1D", SizeBytes: 32 << 10, Ways: 8,
				LineSize: mem.LineSize, Policy: cache.TreePLRU},
			L2: cache.Config{Name: "L2", SizeBytes: 256 << 10, Ways: 4,
				LineSize: mem.LineSize, Policy: cache.TreePLRU},
			LLC: cache.Config{Name: "LLC", SizeBytes: 2 << 20, Ways: 16,
				LineSize: mem.LineSize, Policy: cache.LRU}, // single-core slice share
			Lat: cache.Latencies{L1: 4, L2: 14, LLC: 44, DRAM: 200},
		},
		TLB:      tlb.DefaultConfig(),
		IPStride: prefetcher.DefaultIPStrideConfig(),
		Width:    4,
		MLP:      4,
		GHz:      3.0,
	}
}

// Result summarises one trace replay.
type Result struct {
	Instructions uint64
	Cycles       uint64
	Loads        uint64
	LoadMisses   uint64 // demand loads served beyond the L1
	Prefetches   uint64
	Flushes      uint64
	// L1 prefetch-usefulness accounting (fills vs demand-hit-before-
	// eviction) — the coverage/accuracy view of a prefetcher study.
	PrefetchFills  uint64
	UsefulPrefetch uint64
}

// PrefetchAccuracy is the fraction of prefetch fills that saw a demand hit.
func (r Result) PrefetchAccuracy() float64 {
	if r.PrefetchFills == 0 {
		return 0
	}
	return float64(r.UsefulPrefetch) / float64(r.PrefetchFills)
}

// IPC is instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// String renders a one-line summary.
func (r Result) String() string {
	return fmt.Sprintf("instr=%d cycles=%d IPC=%.3f loads=%d misses=%d prefetches=%d flushes=%d",
		r.Instructions, r.Cycles, r.IPC(), r.Loads, r.LoadMisses, r.Prefetches, r.Flushes)
}

// Simulator replays records.
type Simulator struct {
	cfg  Config
	mem  *cache.Hierarchy
	tlb  *tlb.TLB
	pref *prefetcher.Suite

	nextFlush uint64
	res       Result
}

// New builds a simulator. The DCU/DPL/streamer prefetchers run enabled, as
// on the real parts.
func New(cfg Config) (*Simulator, error) {
	h, err := cache.NewHierarchy(cfg.Hierarchy)
	if err != nil {
		return nil, err
	}
	if cfg.Width <= 0 || cfg.MLP <= 0 {
		return nil, fmt.Errorf("champsim: width and MLP must be positive")
	}
	suite := &prefetcher.Suite{
		IPStride: prefetcher.NewIPStride(cfg.IPStride),
		DCU:      &prefetcher.DCU{Enabled: true},
		DPL:      &prefetcher.DPL{Enabled: true},
		Streamer: prefetcher.NewStreamer(2),
	}
	suite.Streamer.Enabled = true
	s := &Simulator{cfg: cfg, mem: h, tlb: tlb.New(cfg.TLB), pref: suite}
	if cfg.FlushIntervalCycles > 0 {
		s.nextFlush = cfg.FlushIntervalCycles
	}
	return s, nil
}

// Fork returns an independent deep copy of the simulator: a struct copy
// carries the config, the accumulated result and the flush schedule, and
// the caches, TLB and prefetcher suite fork (see their Fork methods).
// Replaying the same records on the fork and on an identically configured
// fresh simulator produces identical results.
func (s *Simulator) Fork() *Simulator {
	f := *s
	f.mem, f.tlb, f.pref = s.mem.Fork(), s.tlb.Fork(), s.pref.Fork()
	return &f
}

// SetFlushInterval reconfigures the periodic clear-ip-prefetcher
// mitigation (0 disables it), scheduling the next flush one interval past
// the cycles accumulated so far — on a pristine simulator this is exactly
// the schedule New(cfg) would have installed.
func (s *Simulator) SetFlushInterval(interval uint64) {
	s.cfg.FlushIntervalCycles = interval
	s.nextFlush = 0
	if interval > 0 {
		s.nextFlush = s.res.Cycles + interval
	}
}

// DisableIPStride turns the IP-stride prefetcher off entirely (the
// "disable the prefetcher" baseline of §8.2).
func (s *Simulator) DisableIPStride() {
	s.pref.IPStride = prefetcher.NewIPStride(prefetcher.IPStrideConfig{
		Entries: 1, IndexBits: 8, MaxConfidence: 3,
		TriggerThreshold: 1 << 30, // never fires
		MaxStrideBytes:   2048,
		Policy:           cache.BitPLRU,
	})
}

// Run replays the records and returns the result.
func (s *Simulator) Run(records []trace.Record) Result {
	for _, r := range records {
		s.step(r)
	}
	s.res.PrefetchFills, s.res.UsefulPrefetch = s.mem.L1.PrefetchStats()
	return s.res
}

func (s *Simulator) step(r trace.Record) {
	// Non-memory instructions retire Width per cycle. (Read the two scalar
	// knobs directly — copying the whole nested Config per record is
	// measurable at this call rate.)
	width, mlp := s.cfg.Width, s.cfg.MLP
	s.res.Instructions += uint64(r.Gap) + 1
	s.res.Cycles += uint64((r.Gap + width - 1) / width)

	pa := mem.PAddr(r.Addr) // traces use physical==virtual (ChampSim style)
	tlbHit, walk := s.tlb.Lookup(0, mem.VAddr(r.Addr))
	level, lat := s.mem.Load(pa)
	s.res.Loads++
	if level != cache.LevelL1 {
		s.res.LoadMisses++
	}
	cost := lat + walk
	if !r.Dependent && level != cache.LevelL1 {
		// Independent misses overlap on an OOO core.
		cost = cost/uint64(mlp) + 1
	}
	s.res.Cycles += cost

	before := s.pref.IPStride.PrefetchCount()
	reqs := s.pref.OnLoad(prefetcher.Access{
		IP: r.IP, PA: pa, PID: 0, TLBHit: tlbHit, Level: level,
	})
	for _, q := range reqs {
		s.mem.Prefetch(q.Target)
	}
	s.res.Prefetches += s.pref.IPStride.PrefetchCount() - before

	if s.cfg.FlushIntervalCycles > 0 && s.res.Cycles >= s.nextFlush {
		s.pref.IPStride.Flush()
		s.res.Cycles += uint64(s.cfg.IPStride.Entries) // C_clear: 1 cycle/entry
		s.res.Flushes++
		s.nextFlush = s.res.Cycles + s.cfg.FlushIntervalCycles
	}
}

// AnalyticUpperBound computes the paper's closed-form worst-case penalty
// (§8.3): (C_clear + C_miss·3·entries) / domain-switch period, as a
// fraction of time on a core at the given frequency.
func AnalyticUpperBound(entries int, cMiss uint64, switchPeriodSeconds float64, ghz float64) float64 {
	cClear := float64(entries) // one cycle per entry
	penaltyCycles := cClear + float64(cMiss)*3*float64(entries)
	periodCycles := switchPeriodSeconds * ghz * 1e9
	return penaltyCycles / periodCycles
}

// AppResult pairs a profile with its measured IPCs.
type AppResult struct {
	Profile    trace.Profile
	Base       Result // prefetcher on, no mitigation
	Mitigated  Result // prefetcher on, periodic flush
	NoPrefetch Result // IP-stride disabled
}

// Slowdown is the mitigation's relative IPC loss versus base.
func (a AppResult) Slowdown() float64 {
	if a.Base.IPC() == 0 {
		return 0
	}
	return 1 - a.Mitigated.IPC()/a.Base.IPC()
}

// PrefetchBenefit is the IPC gain the IP-stride prefetcher provides.
func (a AppResult) PrefetchBenefit() float64 {
	if a.NoPrefetch.IPC() == 0 {
		return 0
	}
	return a.Base.IPC()/a.NoPrefetch.IPC() - 1
}

// RunApp replays one profile three ways (base, mitigated, no-prefetch) over
// n instructions and returns its study row. It is the per-application unit of
// RunStudy, exposed so a supervised campaign can run applications as
// independent jobs; the result depends only on the arguments.
func RunApp(cfg Config, p trace.Profile, n int, flushInterval uint64, seed int64) (AppResult, error) {
	records := trace.NewGenerator(p, seed).Generate(n)

	// Build the hierarchy/TLB/suite once and fork the two variants off the
	// pristine base — bit-identical to three New(cfg) calls
	// (TestRunAppMatchesFreshSimulators) at a third of the setup cost. The
	// forks must happen before base.Run mutates any shared-at-build state.
	base, err := New(cfg)
	if err != nil {
		return AppResult{}, err
	}
	mit := base.Fork()
	mit.SetFlushInterval(flushInterval)
	nop := base.Fork()
	nop.DisableIPStride()

	return AppResult{
		Profile:    p,
		Base:       base.Run(records),
		Mitigated:  mit.Run(records),
		NoPrefetch: nop.Run(records),
	}, nil
}

// RunStudy replays every profile three ways (base, mitigated, no-prefetch)
// over n instructions each and returns per-app results.
func RunStudy(cfg Config, profiles []trace.Profile, n int, flushInterval uint64, seed int64) ([]AppResult, error) {
	out := make([]AppResult, 0, len(profiles))
	for _, p := range profiles {
		r, err := RunApp(cfg, p, n, flushInterval, seed)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// Summary aggregates a study: the mean slowdown over the top-k prefetch-
// sensitive apps (by measured prefetcher benefit) and over all apps —
// the two numbers §8.3 reports (0.7 % and 0.2 %).
func Summary(results []AppResult, topK int) (topSlowdown, allSlowdown float64) {
	if len(results) == 0 {
		return 0, 0
	}
	sorted := append([]AppResult(nil), results...)
	for i := 0; i < len(sorted); i++ {
		for j := i + 1; j < len(sorted); j++ {
			if sorted[j].PrefetchBenefit() > sorted[i].PrefetchBenefit() {
				sorted[i], sorted[j] = sorted[j], sorted[i]
			}
		}
	}
	if topK > len(sorted) {
		topK = len(sorted)
	}
	var top, all float64
	for i, r := range sorted {
		if i < topK {
			top += r.Slowdown()
		}
		all += r.Slowdown()
	}
	return top / float64(topK), all / float64(len(sorted))
}

// Command perfbench is the repository benchmark. It drives the AfterImage
// reproduction through its public functions only — afterimage.Lab,
// champsim, trace, sim.Machine, the campaign server, client and store — and
// reports the host time users wait for.
//
//	perfbench --workload sweep|rsa|mitigation|service --seed N --seconds S --trace 0|1
//
// With --trace 0 it measures one workload with tracing off and prints every
// end-to-end metric. With --trace 1 it prints the per-layer ledger: each
// workload runs once untraced and once traced (benchmark-side spans, a CPU
// profile, the program's own counters), the spans are written as a Chrome
// trace, and the per-layer metrics of all four workloads are printed — the
// ledger spans every workload, so --workload only has to name a valid one.
// The last line of standard output is always the JSON result object.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// A workload is one input mix. open performs the program-side set-up a user
// pays before the first operation and returns the ready instance.
type workload struct {
	name string
	// clock is what operations are timed by. The in-process workloads run
	// one caller, so CPU time (user + system, all threads, GC included) is
	// their cost, and it leaves out the hypervisor steal that makes wall
	// time on a shared two-core box swing between runs. Service requests
	// overlap, so they are timed by the wall clock.
	clock string
	// simEvents is what sim_mevents_per_s counts.
	simEvents string
	open      func(e *env) (instance, error)
}

// An instance runs one workload's operations.
type instance interface {
	// measure runs closed-loop operations until deadline, but at least
	// minOps and at most maxOps (0 = no cap). rec != nil selects the traced
	// path, which records spans and the per-layer accumulators.
	measure(ctx context.Context, deadline time.Time, minOps, maxOps int, rec *recorder) *pass
	// layers writes the per-layer metrics gathered by traced passes.
	layers(out metricSet)
	close()
}

var workloads = []workload{
	{"sweep", "CPU time", "simulated cycles (SweepPoint.Cycles)", openSweep},
	{"rsa", "CPU time", "simulated loads (the lab's mem.load.latency count)", openRSA},
	{"mitigation", "CPU time", "simulated instructions (champsim.Result.Instructions)", openMitigation},
	{"service", "wall time", "simulated cycles of the campaigns the server executed (misses)", openService},
}

// env is what every workload shares within one run.
type env struct {
	seed int64
	// work is a private scratch directory inside the checkout (stores,
	// checkpoints); removed when the run ends.
	work string
	pins *pinFile
	// ledger is set for --trace 1 runs; the service then hands the store
	// and checkpoint writer a timing file system.
	ledger bool
}

// pass is the outcome of one measured loop.
type pass struct {
	lat       []float64 // ms per completed operation, by the workload's clock
	attempted int
	failed    int
	// elapsed is the time base of the rates: the loop's CPU time in-process,
	// its wall time on service.
	elapsed time.Duration
	// simEvents counts the simulated events the completed operations
	// performed (see workload.simEvents).
	simEvents float64
	// allocBytes is what the loop allocated on the heap.
	allocBytes uint64
	heapPeak   uint64
	notes      []string
}

func (p *pass) fail(format string, args ...any) {
	p.failed++
	if p.failed <= 5 {
		p.notes = append(p.notes, "FAILED: "+fmt.Sprintf(format, args...))
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "sweep | rsa | mitigation | service")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "measurement time per run")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer ledger")
	work := fs.String("work", "", "scratch root inside the checkout (default $CARGO_TARGET_DIR or .bench_build)")
	probe := fs.Bool("setup-probe", false, "internal: perform the workload's set-up, report ready, exit")
	pin := fs.String("pin", "", "regenerate the pinned outcomes into this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *pin != "" {
		if err := writePins(*pin); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, ok := findWorkload(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: need --workload sweep|rsa|mitigation|service, --trace 0|1 and --seconds > 0")
		return 2
	}
	root := *work
	if root == "" {
		root = os.Getenv("CARGO_TARGET_DIR")
	}
	if root == "" {
		root = ".bench_build"
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(root, "perfbench-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	e := &env{seed: *seed, work: dir}

	if *probe {
		inst, err := w.open(e)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintln(stdout, "ready", cpuTime().Nanoseconds())
		inst.close()
		return 0
	}
	if e.pins, err = loadPins(); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}

	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	budget := time.Duration(*seconds * float64(time.Second))
	var res *result
	if *trace == 0 {
		res, err = endToEnd(ctx, e, w, budget, root, stdout)
	} else {
		res, err = ledger(ctx, e, budget, filepath.Join(root, "perfbench-trace.json"), stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// endToEnd measures one workload with tracing off.
func endToEnd(ctx context.Context, e *env, w workload, budget time.Duration, root string, stdout io.Writer) (*result, error) {
	setup, err := setupSeconds(ctx, w.name, e.seed, root)
	if err != nil {
		return nil, err
	}
	inst, err := w.open(e)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	defer inst.close()
	p := measured(ctx, inst, budget, 1, 0, nil)
	if len(p.lat) == 0 {
		return nil, fmt.Errorf("%s: no operation completed", w.name)
	}
	m := metricSet{}
	m.set("setup_s", setup, "s")
	p50 := median(p.lat)
	tail, tailPct := tailOf(p.lat)
	m.set("op_ms_p50", p50, "ms")
	m.set("op_ms_tail", tail, "ms")
	m.set("ops_per_s", float64(len(p.lat))/p.elapsed.Seconds(), "1/s")
	m.set("sim_mevents_per_s", p.simEvents/p.elapsed.Seconds()/1e6, "Mevents/s")
	m.set("alloc_mb_per_op", float64(p.allocBytes)/float64(len(p.lat))/(1<<20), "MB")

	fmt.Fprintf(stdout, "workload %s seed %d: %d ops attempted, %d failed, %.2f s %s\n",
		w.name, e.seed, p.attempted, p.failed, p.elapsed.Seconds(), w.clock)
	printMetrics(stdout, m)
	fmt.Fprintf(stdout, "  op_ms_tail is p%s over n=%d ops; sim events are %s\n",
		tailPct, len(p.lat), w.simEvents)
	for _, n := range p.notes {
		fmt.Fprintln(stdout, "  "+n)
	}
	return &result{Correct: p.failed == 0, Attempted: p.attempted, Failed: p.failed, Metrics: m}, nil
}

// measured runs one pass with a fresh heap baseline and the live-heap
// sampler around it.
func measured(ctx context.Context, inst instance, budget time.Duration, minOps, maxOps int, rec *recorder) *pass {
	runtime.GC()
	hs := startHeapSampler()
	p := inst.measure(ctx, time.Now().Add(budget), minOps, maxOps, rec)
	p.heapPeak = hs.stop()
	return p
}

// setupRuns is how many times set-up is measured per run; the median is
// reported.
const setupRuns = 15

// setupSeconds measures process start to first operation: it starts this
// binary in set-up-probe mode setupRuns times; each probe reports the CPU
// time it used from exec to ready, so runtime and package initialisation
// count too.
func setupSeconds(ctx context.Context, name string, seed int64, root string) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var ts []float64
	for i := 0; i < setupRuns; i++ {
		cmd := exec.CommandContext(ctx, self, "--setup-probe", "--workload", name,
			"--seed", strconv.FormatInt(seed, 10), "--work", root)
		out, err := cmd.StdoutPipe()
		if err != nil {
			return 0, err
		}
		if err := cmd.Start(); err != nil {
			return 0, err
		}
		line, rerr := bufio.NewReader(out).ReadString('\n')
		io.Copy(io.Discard, out)
		werr := cmd.Wait()
		f := strings.Fields(line)
		var ns int64
		if rerr == nil && len(f) == 2 && f[0] == "ready" {
			ns, rerr = strconv.ParseInt(f[1], 10, 64)
		}
		if rerr != nil || ns <= 0 || werr != nil {
			return 0, fmt.Errorf("%s: set-up probe failed: %q %v %v", name, line, rerr, werr)
		}
		ts = append(ts, float64(ns)/1e9)
	}
	return median(ts), nil
}

// ledger runs every workload untraced and traced and derives the per-layer
// metrics. Each workload gets an eighth of the budget per pass.
func ledger(ctx context.Context, e *env, budget time.Duration, tracePath string, stdout io.Writer) (*result, error) {
	e.ledger = true
	rec := newRecorder()
	res := &result{Correct: true, Metrics: metricSet{}}
	slice := budget / 8
	for _, w := range workloads {
		inst, err := w.open(e)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		u := measured(ctx, inst, slice, 2, 0, nil)
		t := measured(ctx, inst, slice, 2, len(u.lat), rec)
		inst.layers(res.Metrics)
		inst.close()
		if len(u.lat) == 0 || len(t.lat) == 0 {
			return nil, fmt.Errorf("%s: no operation completed", w.name)
		}
		res.Metrics.set(w.name+".trace_overhead_share", median(t.lat)/median(u.lat)-1, "ratio")
		res.Metrics.set(w.name+".heap_peak_mb", float64(u.heapPeak)/(1<<20), "MB")
		res.Metrics.set(w.name+".unattributed_share", rec.unattributed(w.name), "ratio")
		res.Attempted += u.attempted + t.attempted
		res.Failed += u.failed + t.failed
		fmt.Fprintf(stdout, "ledger %s: untraced %d ops p50 %.3f ms, traced %d ops p50 %.3f ms, %d failed\n",
			w.name, len(u.lat), median(u.lat), len(t.lat), median(t.lat), u.failed+t.failed)
		for _, n := range append(u.notes, t.notes...) {
			fmt.Fprintln(stdout, "  "+n)
		}
	}
	n, err := rec.writeChromeFile(tracePath)
	if err != nil {
		fmt.Fprintf(stdout, "FAILED: trace %s: %v\n", tracePath, err)
		res.Correct = false
	} else {
		fmt.Fprintf(stdout, "trace %s: %d events, validated\n", tracePath, n)
	}
	printMetrics(stdout, res.Metrics)
	res.Correct = res.Correct && res.Failed == 0
	return res, nil
}

func printMetrics(w io.Writer, m metricSet) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

// median is the middle value (mean of the two middle values for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailOf is the highest percentile with at least ten samples beyond it,
// with that percentile's label. Up to 20 samples such a percentile would sit
// at or under the median, so the maximum (p100) is reported instead.
func tailOf(xs []float64) (float64, string) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n <= 20 {
		return s[n-1], "100"
	}
	return s[n-11], strconv.FormatFloat(100*float64(n-10)/float64(n), 'f', 1, 64)
}

// heapSampler samples the live heap (as of the latest GC mark) every
// millisecond while a pass runs and reports its peak as the 95th percentile
// of the samples: the level the live heap stays above for a twentieth of the
// run. The single highest sample is one GC's timing accident — whether a
// mark happened to land while a short-lived structure was reachable — and
// swung by 20 % between runs. Even the percentile rises when the machine is
// slow, because objects allocated during a longer mark count as live; so the
// end-to-end metric is allocation per operation and the peak is a ledger
// figure.
type heapSampler struct {
	stopc chan struct{}
	done  chan uint64
}

const heapMetric = "/gc/heap/live:bytes"

// heapAllocs is the cumulative number of bytes allocated on the heap.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		sample := []metrics.Sample{{Name: heapMetric}}
		var live []uint64
		read := func() {
			metrics.Read(sample)
			if sample[0].Value.Kind() == metrics.KindUint64 {
				live = append(live, sample[0].Value.Uint64())
			}
		}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			read()
			select {
			case <-h.stopc:
				read()
				sort.Slice(live, func(i, j int) bool { return live[i] < live[j] })
				h.done <- live[(len(live)*95+99)/100-1]
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) stop() uint64 {
	close(h.stopc)
	return <-h.done
}

// closedLoop calls op for i = 0, 1, ... until deadline has passed and at
// least minOps ran, or maxOps ran (0 = no cap). op reports its CPU time in
// ms and whether it completed correctly.
//
// The loop runs with GOMAXPROCS 1. The operations are sequential either
// way, but with a second P idle the collector's idle mark workers fill it
// for as long as each mark lasts, which adds a scheduling-dependent amount
// of CPU time; on one P the collector's CPU time follows the allocation.
func closedLoop(ctx context.Context, deadline time.Time, minOps, maxOps int, p *pass, op func(i int) (float64, bool)) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	start, allocs := cpuTime(), heapAllocs()
	for i := 0; ; i++ {
		if maxOps > 0 && i >= maxOps {
			break
		}
		if i >= minOps && !time.Now().Before(deadline) {
			break
		}
		if ctx.Err() != nil {
			p.fail("run deadline: %v", ctx.Err())
			break
		}
		p.attempted++
		if ms, ok := op(i); ok {
			p.lat = append(p.lat, ms)
		}
	}
	p.elapsed = cpuTime() - start
	p.allocBytes = heapAllocs() - allocs
}

// msSince is the wall time since t in milliseconds.
func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// cpuTime is this process's CPU time so far: user plus system, all threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // only EFAULT or EINVAL, neither possible here
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuMSSince is the CPU time since c in milliseconds.
func cpuMSSince(c time.Duration) float64 { return float64((cpuTime() - c).Nanoseconds()) / 1e6 }

// poolIndex maps the run seed and operation index onto the pinned input
// pool: operation i uses input seed+i, wrapped into [0, size).
func poolIndex(seed int64, i, size int) int {
	return int(((seed+int64(i))%int64(size) + int64(size)) % int64(size))
}

// onTwoWorkers calls fn(i) for every i in [0, n) on two goroutines, one
// per core, and returns the joined errors.
func onTwoWorkers(n int, fn func(i int) error) error {
	var (
		mu   sync.Mutex
		list []error
		wg   sync.WaitGroup
	)
	work := make(chan int)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				if err := fn(i); err != nil {
					mu.Lock()
					list = append(list, err)
					mu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
	return errors.Join(list...)
}

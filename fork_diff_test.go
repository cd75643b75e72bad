package afterimage

// Fork-vs-fresh differential suite: executing on a forked machine must be
// observationally indistinguishable from booting fresh. Every check here
// gates against the SAME seed-path goldens as the hot-path differential
// suite (testdata/hotpath_golden.json) — recorded before forking existed —
// so a fork that leaks state from its parent, shares a mutable slice, or
// perturbs an RNG stream diverges from a reference it cannot regenerate.
// Two legs mirror the hot-path suite (whose fault-sweep leg already runs
// the one, fresh-per-point sweep path against the same goldens):
//
//   - every Table 3 experiment run on a lab FORKED from a pristine lab
//     must reproduce the fresh-lab machine digest bit-for-bit,
//   - the randomized traces must digest identically when the machine is
//     forked mid-trace and the suffix replayed on the fork — and the parent,
//     continued past the fork, must digest identically too (isolation).

import (
	"context"
	"fmt"
	"testing"

	"afterimage/internal/mem"
)

// findMapping locates the fork's clone of a parent mapping by base address
// (Machine.Fork preserves bases; only the backing slices are copied).
func findMapping(as *mem.AddressSpace, base mem.VAddr, t *testing.T) *mem.Mapping {
	t.Helper()
	for _, mp := range as.Mappings() {
		if mp.Base == base {
			return mp
		}
	}
	t.Fatalf("fork lost mapping at base %#x", base)
	return nil
}

// forkTraceRig forks the rig's machine and re-binds processes, envs and
// mappings against the fork, so the trace driver can continue on it.
func forkTraceRig(t *testing.T, r *traceRig) *traceRig {
	t.Helper()
	fm, err := r.m.Fork()
	if err != nil {
		t.Fatalf("fork: %v", err)
	}
	procs := fm.Processes()
	if len(procs) != 2 {
		t.Fatalf("fork carried %d processes, want 2", len(procs))
	}
	pa, pb := procs[0], procs[1]
	return &traceRig{
		m:       fm,
		ea:      fm.Direct(pa),
		eb:      fm.Direct(pb),
		bufA:    findMapping(pa.AS, r.bufA.Base, t),
		recl:    findMapping(pa.AS, r.recl.Base, t),
		shared:  findMapping(pa.AS, r.shared.Base, t),
		sharedB: findMapping(pb.AS, r.sharedB.Base, t),
		bufB:    findMapping(pb.AS, r.bufB.Base, t),
	}
}

// TestForkDifferentialRandomTraces forks each golden trace machine at
// several points — pristine, mid-trace, late — replays the remaining steps
// on the fork, and requires the fork's final digest to equal the unbroken
// seed-path digest. The parent is then continued over the same suffix and
// must reach the identical digest: the fork observed no state the parent
// lost, and the parent observed no mutation the fork made.
func TestForkDifferentialRandomTraces(t *testing.T) {
	want := loadHotpathGolden(t).Traces
	if len(want) == 0 {
		t.Fatal("golden has no trace digests")
	}
	seeds := []int64{1, 2, 3, 5, 8, 13, 21, 99}
	const steps = 4000
	for _, seed := range seeds {
		w, ok := want[fmt.Sprint(seed)]
		if !ok {
			t.Fatalf("golden missing trace seed %d", seed)
		}
		for _, forkAt := range []int{0, steps / 2, steps - 100} {
			r := newTraceRig(seed)
			r.run(forkAt)
			f := forkTraceRig(t, r)
			f.run(steps - forkAt)
			if got := hexDigest(f.m.StateHash()); got != w {
				t.Errorf("seed %d fork@%d: forked digest %s, seed path recorded %s",
					seed, forkAt, got, w)
			}
			r.run(steps - forkAt)
			if got := hexDigest(r.m.StateHash()); got != w {
				t.Errorf("seed %d fork@%d: parent digest %s after fork, seed path recorded %s",
					seed, forkAt, got, w)
			}
		}
	}
}

// TestForkDifferentialTable3 runs every Table 3 experiment on a lab forked
// from a pristine lab and requires each final machine digest to match the
// fresh-lab seed-path golden. The final audit runs on the forked machine,
// so the invariant registry (including mem.spaces) sees fork-built state.
func TestForkDifferentialTable3(t *testing.T) {
	opts := hotpathReportOptions()
	want := loadHotpathGolden(t).Table3
	got := map[string]string{}
	for i, spec := range table3Specs(opts) {
		lab, err := NewLab(table3LabOptions(opts, i, spec.key)).Fork()
		if err != nil {
			t.Fatalf("%s: fork: %v", spec.key, err)
		}
		lab.ArmCancel(context.Background())
		_, err = spec.run(context.Background(), lab)
		if err == nil {
			err = lab.m.Audit()
		}
		if err != nil {
			t.Fatalf("%s (forked): %v", spec.key, err)
		}
		got[spec.key] = hexDigest(lab.m.StateHash())
	}
	for key, w := range want {
		if got[key] != w {
			t.Errorf("table3 %s: forked digest %s, seed path recorded %s", key, got[key], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("experiment set drifted: %d run forked, %d recorded", len(got), len(want))
	}
}

// TestForkDifferentialFaultSweepFresh runs the golden fault-sweep campaign
// from a forked lab that has already run it once, and requires every point
// digest to match the recorded seed path. The sweep boots a fresh lab per
// point from the caller's options, so neither forking the caller nor a
// prior campaign on it may leak into any point.
func TestForkDifferentialFaultSweepFresh(t *testing.T) {
	lab, err := NewLab(Options{Seed: 42, Quiet: true}).Fork()
	if err != nil {
		t.Fatal(err)
	}
	want := loadHotpathGolden(t).Sweep
	for run := 0; run < 2; run++ {
		res := lab.RunFaultSweep(hotpathSweepOptions())
		if len(res.Points) != len(want) {
			t.Fatalf("run %d: sweep has %d points, seed path recorded %d", run, len(res.Points), len(want))
		}
		for i, pt := range res.Points {
			if got := hexDigest(pt.StateHash); got != want[i] {
				t.Errorf("run %d, sweep point %d: state hash %s, seed path recorded %s", run, i, got, want[i])
			}
		}
	}
}

// TestLabForkPristine pins the Lab-level fork contract: a fork of an
// untouched lab digests identically to a fresh NewLab with the same
// options, RNG stream included.
func TestLabForkPristine(t *testing.T) {
	opts := Options{Seed: 42, Quiet: true}
	fresh := NewLab(opts)
	forked, err := NewLab(opts).Fork()
	if err != nil {
		t.Fatal(err)
	}
	if f, g := fresh.m.StateHash(), forked.m.StateHash(); f != g {
		t.Fatalf("pristine fork digest %#x, fresh lab %#x", g, f)
	}
	// The lab RNG must continue the same stream (randomBits drives every
	// attack's secret): equal draws, fork-first to prove independence.
	fb := forked.randomBits(64)
	gb := fresh.randomBits(64)
	if boolsEqual(fb, gb) != 64 {
		t.Fatal("forked lab RNG diverged from fresh lab RNG")
	}
}

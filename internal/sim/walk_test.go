package sim

import (
	"testing"

	"afterimage/internal/walktest"
)

// TestMachineWalkCoverage: every Machine field, and every field of the
// physical memory, processes, address spaces and mappings under it, is
// either walked (so forked and hashed into the "machine" digest) or on the
// attachment/geometry list. A fork's spaces must be bound to the fork's
// own physical memory: bumping a space's phys on the fork that reached
// the parent's fails.
func TestMachineWalkCoverage(t *testing.T) {
	m, _, _ := warmMachine(t)
	const (
		component = "a component: own walk, Fork, digest and WalkCoverage test"
		label     = "a fixed label"
		replay    = "the generator replays from seed to draws"
		view      = "a rand.Rand over the walked source, rebuilt by the copying walk"
		attach    = "a per-machine attachment, rebuilt by attach"
		perRun    = "a per-run harness attachment, reset by Fork"
		cadence   = "audit cadence: copied but unhashed, as TestAuditCadenceIsReadOnly requires"
	)
	attached := walktest.Attached{
		"Cfg": "configuration, fixed at construction",
		"Mem": component, "TLB": component, "Pref": component,
		"Phys.frames": "capacity, fixed at construction",
		"syscalls":    "driver-installed funcs, copied with maps.Clone",
		"jitter":      view, "noise": view,
		"jitterSrc.seed": replay, "jitterSrc.src": replay, "noiseSrc.seed": replay, "noiseSrc.src": replay,
		"budgetLimit": "equals Cfg.MaxCycles whenever Fork is allowed",
		"sched":       attach, "tel": attach, "latHist": attach, "inv": attach,
		"cancel": perRun, "cancelTick": perRun, "pert": perRun, "inPerturb": perRun,
		"pendingFault": perRun, "lastViolations": perRun,
		"auditEvery": cadence, "sinceAudit": cadence, "auditRuns": cadence, "auditViolation": cadence,
	}
	for _, p := range []string{"Kernel.", "procs[0]."} {
		attached[p+"PID"], attached[p+"Name"], attached[p+"AS.Name"] = label, label, label
		attached[p+"AS.phys.frames"] = "capacity, fixed at construction"
		attached[p+"AS.pages"] = "an index over the mappings, rebuilt by the copying walk"
		attached[p+"AS.aslr"] = view
		attached[p+"AS.aslrSrc.seed"], attached[p+"AS.aslrSrc.src"] = replay, replay
	}
	walktest.Check(t, m, (*Machine).MustFork, (*Machine).machineHash, attached)
}

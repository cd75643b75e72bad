package sim

import (
	"afterimage/internal/mem"
	"afterimage/internal/statehash"
)

// Fork produces an independent machine whose simulated state is
// bit-identical to the receiver's: the state Machine.walk visits is
// copied by a copying walk over a shallow copy, the cache hierarchy, TLB
// and prefetcher suite fork themselves, and the per-machine attachments
// (scheduler, telemetry hub, invariant registry) are built fresh over the
// copy. The per-run harness attachments (perturber, cancellation probe,
// pending fault, last-audit diagnostics) are not carried over. Fork and
// the component Forks are the simulator's only state-copy path; forking a
// pristine machine is observably equivalent to constructing a new one
// with the same configuration.
//
// Fork refuses while the scheduler is mid-run: parked task goroutines hold
// execution state that cannot be copied.
func (m *Machine) Fork() (*Machine, error) {
	if m.sched.running {
		return nil, &SimFault{
			Kind: FaultAPIMisuse, Domain: DomainUser, Cycle: m.clock,
			Msg: "Fork during an active scheduler run",
		}
	}
	f := *m
	f.walk(statehash.Copying())
	f.Mem, f.TLB, f.Pref = m.Mem.Fork(), m.TLB.Fork(), m.Pref.Fork()
	f.pert, f.inPerturb, f.cancel, f.cancelTick = nil, false, nil, 0
	f.pendingFault, f.lastViolations = nil, nil
	f.attach()
	return &f, nil
}

// MustFork is Fork that panics on failure — for tests and drivers where a
// mid-run fork is a programming error.
func (m *Machine) MustFork() *Machine {
	f, err := m.Fork()
	if err != nil {
		panic(err)
	}
	return f
}

// Processes returns the machine's user processes in creation order — the
// handle a driver needs to resume work on a forked machine, whose Process
// structs are its own copies of the parent's.
func (m *Machine) Processes() []*Process {
	return append([]*Process(nil), m.procs...)
}

// LoadOp is one element of a batched trace chunk: a load instruction at IP
// touching virtual address VA.
type LoadOp struct {
	IP uint64
	VA mem.VAddr
}

// loadBatch replays a trace chunk through the per-load hot path with the
// dispatch hoisted out of the loop: the PID and translation context are
// fixed per Env (they depend only on the domain and owning process), so
// they are resolved once instead of per load. Each element then performs
// exactly the Env.Load sequence — budget check, lastIP, load, tick — so a
// batch is observationally identical to the per-load loop, element for
// element, fault for fault.
func (m *Machine) loadBatch(e *Env, ops []LoadOp, lats []uint64) []uint64 {
	pid := e.PID()
	as := e.addressSpace()
	for i := range ops {
		m.checkBudget(e)
		e.lastIP = ops[i].IP
		lat := m.load(ops[i].IP, ops[i].VA, pid, as)
		m.tick(e)
		lats = append(lats, lat)
	}
	return lats
}

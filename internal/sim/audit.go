package sim

import (
	"fmt"
	"strings"

	"afterimage/internal/invariant"
	"afterimage/internal/mem"
)

// buildInvariants wires the per-component structural checkers into the
// machine's registry. Component names are stable: prefetcher.ipstride,
// cache.hierarchy, tlb, sched.
func (m *Machine) buildInvariants() *invariant.Registry {
	reg := invariant.New()
	reg.Register("prefetcher.ipstride", func() []invariant.Violation {
		return asViolations("prefetcher.ipstride", m.Pref.Audit())
	})
	reg.Register("cache.hierarchy", func() []invariant.Violation {
		return asViolations("cache.hierarchy", m.Mem.Audit())
	})
	reg.Register("tlb", func() []invariant.Violation {
		vs := asViolations("tlb", m.TLB.Audit())
		return append(vs, m.auditTLBCoherence()...)
	})
	reg.Register("sched", m.auditScheduler)
	reg.Register("mem.spaces", m.auditSpaces)
	return reg
}

// auditSpaces checks machine↔address-space wiring: every space (kernel plus
// processes) carries a distinct ASID, and the kernel noise region still
// translates in the kernel's space.
func (m *Machine) auditSpaces() []invariant.Violation {
	var vs []invariant.Violation
	seen := map[uint64]string{m.Kernel.AS.ID: m.Kernel.Name}
	for _, p := range m.procs {
		if prev, dup := seen[p.AS.ID]; dup {
			vs = append(vs, invariant.Violationf("mem.spaces", "address spaces %q and %q share ASID %d", prev, p.Name, p.AS.ID))
		}
		seen[p.AS.ID] = p.Name
	}
	if _, ok := m.Kernel.AS.Translate(m.noiseBase); !ok {
		vs = append(vs, invariant.Violationf("mem.spaces", "kernel noise region base %#x has no translation", uint64(m.noiseBase)))
	}
	return vs
}

func asViolations(component string, errs []error) []invariant.Violation {
	var vs []invariant.Violation
	for _, err := range errs {
		vs = append(vs, invariant.Violation{Component: component, Detail: err.Error()})
	}
	return vs
}

// auditTLBCoherence walks every valid TLB entry and checks it is backed by a
// page-table translation in the address space owning that ASID: a cached
// translation with no backing page is the desync a missed shootdown leaves.
func (m *Machine) auditTLBCoherence() []invariant.Violation {
	spaces := map[uint64]*mem.AddressSpace{m.Kernel.AS.ID: m.Kernel.AS}
	for _, p := range m.procs {
		spaces[p.AS.ID] = p.AS
	}
	var vs []invariant.Violation
	m.TLB.VisitEntries(func(asid, vpn uint64) {
		as, ok := spaces[asid]
		if !ok {
			vs = append(vs, invariant.Violationf("tlb", "entry (asid %d, vpn %#x) references unknown address space", asid, vpn))
			return
		}
		if _, ok := as.Translate(mem.VAddr(vpn << mem.PageShift)); !ok {
			vs = append(vs, invariant.Violationf("tlb", "entry (asid %d, vpn %#x) has no page-table backing in %q (stale translation)", asid, vpn, as.Name))
		}
	})
	return vs
}

// auditScheduler checks run-loop bookkeeping: while a run is active the
// current task must exist, be registered and not be done.
func (m *Machine) auditScheduler() []invariant.Violation {
	s := m.sched
	if !s.running {
		return nil
	}
	var vs []invariant.Violation
	if s.current == nil {
		return append(vs, invariant.Violationf("sched", "running with no current task"))
	}
	if s.current.done {
		vs = append(vs, invariant.Violationf("sched", "current task %q already done", s.current.name))
	}
	found := false
	for _, t := range s.tasks {
		if t == s.current {
			found = true
			break
		}
	}
	if !found {
		vs = append(vs, invariant.Violationf("sched", "current task %q not registered", s.current.name))
	}
	return vs
}

// Audit runs every registered invariant checker over the machine's state.
// It returns nil when the state is structurally sound, or a FaultCorruption
// *SimFault whose message lists every violation. The check is read-only:
// the clock does not advance and no RNG is drawn, so auditing never changes
// simulated outcomes.
func (m *Machine) Audit() error {
	m.auditRuns++
	vs := m.inv.Audit()
	if len(vs) == 0 {
		m.lastViolations = nil
		return nil
	}
	m.auditViolation += uint64(len(vs))
	m.lastViolations = vs
	details := make([]string, len(vs))
	for i, v := range vs {
		details[i] = v.String()
	}
	return &SimFault{
		Kind:  FaultCorruption,
		Cycle: m.clock,
		Msg:   fmt.Sprintf("%d invariant violation(s): %s", len(vs), strings.Join(details, "; ")),
	}
}

// AuditViolations returns the violations found by the most recent failing
// Audit (nil after a clean one).
func (m *Machine) AuditViolations() []invariant.Violation {
	return append([]invariant.Violation(nil), m.lastViolations...)
}

// AuditComponents lists the registered checker names.
func (m *Machine) AuditComponents() []string { return m.inv.Components() }

// SetAuditEvery enables the audit cadence: a full invariant audit every n
// domain switches, with a failing audit surfacing as a FaultCorruption task
// fault. Zero disables the cadence (the disabled path costs one integer
// compare per switch).
func (m *Machine) SetAuditEvery(n int) {
	if n < 0 {
		n = 0
	}
	m.auditEvery = n
	m.sinceAudit = 0
}

// AuditEvery reports the configured cadence (0 = disabled).
func (m *Machine) AuditEvery() int { return m.auditEvery }

package cluster

import (
	"fmt"
	"sort"

	"repro/internal/sim"
)

// FaultKind names one of the cluster fault models.
type FaultKind string

const (
	// FaultNodeDown removes a node from the balancer's candidate set for a
	// cycle window: queries arriving in [AtCycle, AtCycle+DurationCycles) are
	// routed around it, and it rejoins when the window closes. Routing is
	// decided at query arrival time, exactly like a front-end health check.
	FaultNodeDown FaultKind = "node-down"
	// FaultFailSlow keeps the node in rotation but inflates the service
	// demand of every leaf arriving in the window by Factor — the gray
	// failure mode (a degraded disk, a thermally throttled core) that hurts
	// tails far more than a clean crash.
	FaultFailSlow FaultKind = "fail-slow"
	// FaultRestart cold-restarts the node's server process at AtCycle: the
	// node keeps receiving traffic but its caches, monitors and policy state
	// are rebuilt from scratch at that cycle boundary (sim.ColdRestart), so
	// the tail pays the re-warming cost.
	FaultRestart FaultKind = "restart"
)

// FaultKinds returns the known fault kinds in display order.
func FaultKinds() []FaultKind {
	return []FaultKind{FaultNodeDown, FaultFailSlow, FaultRestart}
}

// Fault is one scheduled fault-plan entry against a single node.
type Fault struct {
	// Kind selects the fault model.
	Kind FaultKind
	// Node is the index of the faulted node in Spec.Nodes.
	Node int
	// AtCycle is when the fault takes effect (a global arrival-clock cycle).
	AtCycle uint64
	// DurationCycles is the window length for node-down and fail-slow faults;
	// restarts are instantaneous and must leave it zero.
	DurationCycles uint64
	// Factor is the fail-slow service-demand inflation (>= 1); other kinds
	// must leave it zero.
	Factor float64
}

// window returns the fault's half-open active window.
func (f Fault) window() (start, end uint64) {
	return f.AtCycle, f.AtCycle + f.DurationCycles
}

// validate checks one fault entry against the cluster size.
func (f Fault) validate(i, nodes int) error {
	if f.Node < 0 || f.Node >= nodes {
		return fmt.Errorf("cluster: fault %d targets node %d, want [0,%d)", i, f.Node, nodes)
	}
	switch f.Kind {
	case FaultNodeDown:
		if f.DurationCycles == 0 {
			return fmt.Errorf("cluster: fault %d (node-down) needs a positive duration", i)
		}
		if f.Factor != 0 {
			return fmt.Errorf("cluster: fault %d (node-down) must not set a factor", i)
		}
	case FaultFailSlow:
		if f.DurationCycles == 0 {
			return fmt.Errorf("cluster: fault %d (fail-slow) needs a positive duration", i)
		}
		if f.Factor < 1 {
			return fmt.Errorf("cluster: fault %d (fail-slow) needs an inflation factor >= 1, got %v", i, f.Factor)
		}
	case FaultRestart:
		if f.AtCycle == 0 {
			return fmt.Errorf("cluster: fault %d (restart) needs a positive restart cycle", i)
		}
		if f.DurationCycles != 0 || f.Factor != 0 {
			return fmt.Errorf("cluster: fault %d (restart) is instantaneous; duration and factor must be zero", i)
		}
	default:
		return fmt.Errorf("cluster: fault %d has unknown kind %q (known: %v)", i, f.Kind, FaultKinds())
	}
	return nil
}

// validateFaults checks the whole fault plan: well-formed entries, per-node
// disjoint fail-slow windows, distinct per-node restart cycles, and — the
// routing-safety invariant — enough nodes up at every instant to serve a
// query's fan-out (plus the hedge spare). The simultaneous-down count
// is piecewise constant and only increases at window starts, so checking each
// window's start cycle bounds the maximum.
func (sh Shape) validateFaults() error {
	m := sh.Nodes
	for i, f := range sh.Faults {
		if err := f.validate(i, m); err != nil {
			return err
		}
	}
	need, spare := sh.Fanout, ""
	if sh.Hedged {
		need, spare = need+1, " + hedge spare"
	}
	for i, f := range sh.Faults {
		if f.Kind != FaultNodeDown {
			continue
		}
		down := map[int]bool{}
		for _, g := range sh.Faults {
			if g.Kind != FaultNodeDown {
				continue
			}
			if start, end := g.window(); f.AtCycle >= start && f.AtCycle < end {
				down[g.Node] = true
			}
		}
		if m-len(down) < need {
			return fmt.Errorf("cluster: fault %d leaves only %d healthy nodes at cycle %d; queries need %d (fan-out%s)",
				i, m-len(down), f.AtCycle, need, spare)
		}
	}
	for n := 0; n < m; n++ {
		slow := slowWindowsFor(sh.Faults, n)
		for i := 1; i < len(slow); i++ {
			if slow[i].StartCycle < slow[i-1].EndCycle {
				return fmt.Errorf("cluster: node %d has overlapping fail-slow windows ([%d,%d) and [%d,%d))",
					n, slow[i-1].StartCycle, slow[i-1].EndCycle, slow[i].StartCycle, slow[i].EndCycle)
			}
		}
		restarts := restartsFor(sh.Faults, n)
		for i := 1; i < len(restarts); i++ {
			if restarts[i] == restarts[i-1] {
				return fmt.Errorf("cluster: node %d has duplicate restart at cycle %d", n, restarts[i])
			}
		}
	}
	return nil
}

// downAt reports whether node n is inside a node-down window at cycle t.
func downAt(faults []Fault, n int, t uint64) bool {
	for _, f := range faults {
		if f.Kind == FaultNodeDown && f.Node == n {
			if start, end := f.window(); t >= start && t < end {
				return true
			}
		}
	}
	return false
}

// slowWindowsFor collects node n's fail-slow windows as the simulator's
// SlowWindow plumbing, sorted by start cycle.
func slowWindowsFor(faults []Fault, n int) []sim.SlowWindow {
	var out []sim.SlowWindow
	for _, f := range faults {
		if f.Kind == FaultFailSlow && f.Node == n {
			start, end := f.window()
			out = append(out, sim.SlowWindow{StartCycle: start, EndCycle: end, Factor: f.Factor})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].StartCycle < out[j].StartCycle })
	return out
}

// restartsFor collects node n's restart cycles, sorted ascending.
func restartsFor(faults []Fault, n int) []uint64 {
	var out []uint64
	for _, f := range faults {
		if f.Kind == FaultRestart && f.Node == n {
			out = append(out, f.AtCycle)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

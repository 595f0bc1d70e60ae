package sim

import (
	"repro/internal/monitor"
	"repro/internal/policy"
)

// minWindowAccesses is the number of accesses a reconfiguration window must
// contain before its miss curve is trusted; below this the cumulative curve is
// used instead (an application that was idle for the whole window would
// otherwise present an empty curve).
const minWindowAccesses = 200

// simView implements policy.View on top of the live simulator state.
type simView struct {
	s *Simulator
}

var _ policy.View = (*simView)(nil)

func (v *simView) NumApps() int       { return len(v.s.apps) }
func (v *simView) TotalLines() uint64 { return v.s.cfg.LLC.Lines }

func (v *simView) IsLatencyCritical(app int) bool { return v.s.apps[app].isLC() }

func (v *simView) Active(app int) bool {
	a := v.s.apps[app]
	if !a.isLC() {
		return true
	}
	return a.hasWork()
}

func (v *simView) MissCurve(app int) monitor.MissCurve {
	a := v.s.apps[app]
	window := a.umon.MissCurve(a.umonAtReconfig)
	if window.Accesses < minWindowAccesses {
		window = a.umon.MissCurve(monitor.UMONSnapshot{})
	}
	return window.Interpolate(v.s.cfg.MissCurvePoints)
}

func (v *simView) MissPenalty(app int) float64 {
	a := v.s.apps[app]
	return a.mlp.AvgMissPenalty(v.s.cfg.Core.MissPenalty(a.mlpFactor))
}

// CyclesPerAccessHit estimates the cycles between consecutive LLC accesses
// when they hit. With private levels enabled the measured path divides the
// window's total cycles (including private-hit epochs) by its filtered
// LLCAccesses, which is exactly the amortised per-LLC-access cost policies
// need when projecting time over future LLC access counts.
func (v *simView) CyclesPerAccessHit(app int) float64 {
	a := v.s.apps[app]
	w := a.counters.Sub(a.countersAtReconfig)
	if w.LLCAccesses < minWindowAccesses {
		w = a.counters
	}
	if w.LLCAccesses == 0 {
		// The app has never reached the LLC (w is already the cumulative
		// counters here), so there is no observed private-hit ratio to
		// amortise with; fall back to the analytic flat cost. With private
		// levels this understates the per-LLC-access cost by the (not yet
		// known) private-hit fraction, but only until the first monitored
		// window, after which the measured branch takes over.
		return v.s.cfg.Core.ComputeCyclesPerAccess(a.baseCPI, a.apki) + v.s.cfg.Core.HitPenalty(a.mlpFactor)
	}
	perAccess := float64(w.Cycles) / float64(w.LLCAccesses)
	missPart := w.MissRate() * v.MissPenalty(app)
	c := perAccess - missPart
	if c < 1 {
		c = 1
	}
	return c
}

func (v *simView) CurrentTarget(app int) uint64 {
	return v.s.llc.PartitionTarget(partID(app))
}

func (v *simView) LCTargetLines(app int) uint64 {
	return v.s.apps[app].spec.targetLines()
}

func (v *simView) DeadlineCycles(app int) uint64 {
	return v.s.apps[app].spec.DeadlineCycles
}

func (v *simView) IdleFraction(app int) float64 {
	a := v.s.apps[app]
	if !a.isLC() {
		return 0
	}
	interval := v.s.cfg.ReconfigIntervalCycles
	if interval == 0 {
		return 0
	}
	f := float64(a.idleInInterval) / float64(interval)
	if f > 1 {
		f = 1
	}
	return f
}

func (v *simView) PartitionMisses(app int) uint64 {
	return v.s.llc.PartitionStats(partID(app)).Misses
}

func (v *simView) UMONSnapshot(app int) monitor.UMONSnapshot {
	return v.s.apps[app].umon.Snapshot()
}

func (v *simView) UMONMissesAtSince(app int, since monitor.UMONSnapshot, lines uint64) float64 {
	return v.s.apps[app].umon.MissesAtSizeSince(since, lines)
}

func (v *simView) Now() uint64 { return v.s.globalTime() }

package policy

import "repro/internal/monitor"

// This file is the plant-agnostic half of the policy interface. policy.View
// is deliberately pure — it exposes only what the paper's software runtime
// can observe — but until now its sole implementation lived inside the
// simulator, so nothing else could drive a policy. PlantView is a concrete
// View built from plain per-application observations, letting any plant
// (the simulated CMP, the live cache service, tests) snapshot its monitoring
// state once per epoch and hand the same Ubik/UCP machinery a window onto it.

// AppObservation is one application's (or tenant's) monitoring state for a
// single reconfiguration epoch, as assembled by a plant.
type AppObservation struct {
	// LatencyCritical marks the app as latency-critical; false = batch.
	LatencyCritical bool
	// Active reports whether a latency-critical app currently has work.
	// Batch apps are treated as always active regardless of this field.
	Active bool
	// Curve is the epoch's miss curve (fine-grained; interpolate before
	// filling this in if the raw monitor curve is coarse).
	Curve monitor.MissCurve
	// MissPenalty is the measured (or configured) cost weight per miss.
	MissPenalty float64
	// CyclesPerAccessHit is the measured compute cost between accesses.
	CyclesPerAccessHit float64
	// CurrentTarget is the app's current partition target in lines.
	CurrentTarget uint64
	// Occupancy is the partition's current size in lines.
	Occupancy uint64
	// LCTargetLines is the latency-critical target allocation (0 for batch).
	LCTargetLines uint64
	// DeadlineCycles is the latency-critical deadline (0 for batch).
	DeadlineCycles uint64
	// IdleFraction is the fraction of the epoch spent idle (0 for batch).
	IdleFraction float64
	// Misses is the cumulative actual miss count of the app's partition.
	Misses uint64
	// Snap is the app's UMON counter snapshot at the epoch boundary.
	Snap monitor.UMONSnapshot
	// MissesAtSince estimates misses since a snapshot at an allocation; nil
	// falls back to evaluating Curve at the allocation (adequate for plants
	// that never boost, i.e. never receive OnLCCheck).
	MissesAtSince func(since monitor.UMONSnapshot, lines uint64) float64
}

// PlantView is a policy.View backed by per-epoch observations. The zero
// value is unusable; fill every field. It is a snapshot: policies read it
// during one Reconfigure/event call while the plant keeps running.
type PlantView struct {
	// Apps holds one observation per application, indexed by app.
	Apps []AppObservation
	// Lines is the total managed capacity in lines.
	Lines uint64
	// EpochCycles is the reconfiguration interval in cycles.
	EpochCycles uint64
	// Clock is the current plant time in cycles.
	Clock uint64
}

// NumApps implements View.
func (v *PlantView) NumApps() int { return len(v.Apps) }

// TotalLines implements View.
func (v *PlantView) TotalLines() uint64 { return v.Lines }

// IsLatencyCritical implements View.
func (v *PlantView) IsLatencyCritical(app int) bool { return v.Apps[app].LatencyCritical }

// Active implements View. Batch applications are always active.
func (v *PlantView) Active(app int) bool {
	return !v.Apps[app].LatencyCritical || v.Apps[app].Active
}

// MissCurve implements View.
func (v *PlantView) MissCurve(app int) monitor.MissCurve { return v.Apps[app].Curve }

// MissPenalty implements View.
func (v *PlantView) MissPenalty(app int) float64 { return v.Apps[app].MissPenalty }

// CyclesPerAccessHit implements View.
func (v *PlantView) CyclesPerAccessHit(app int) float64 { return v.Apps[app].CyclesPerAccessHit }

// CurrentTarget implements View.
func (v *PlantView) CurrentTarget(app int) uint64 { return v.Apps[app].CurrentTarget }

// LCTargetLines implements View.
func (v *PlantView) LCTargetLines(app int) uint64 { return v.Apps[app].LCTargetLines }

// DeadlineCycles implements View.
func (v *PlantView) DeadlineCycles(app int) uint64 { return v.Apps[app].DeadlineCycles }

// IdleFraction implements View.
func (v *PlantView) IdleFraction(app int) float64 { return v.Apps[app].IdleFraction }

// PartitionMisses implements View.
func (v *PlantView) PartitionMisses(app int) uint64 { return v.Apps[app].Misses }

// UMONSnapshot implements View.
func (v *PlantView) UMONSnapshot(app int) monitor.UMONSnapshot { return v.Apps[app].Snap }

// Now implements View.
func (v *PlantView) Now() uint64 { return v.Clock }

// UMONMissesAtSince implements View.
func (v *PlantView) UMONMissesAtSince(app int, since monitor.UMONSnapshot, lines uint64) float64 {
	if f := v.Apps[app].MissesAtSince; f != nil {
		return f(since, lines)
	}
	return v.Apps[app].Curve.At(lines)
}

var _ View = (*PlantView)(nil)

// ApplyResizes folds a policy's resizes into the plant's target allocation
// vector: targets[r.App] = r.Target for every resize addressing a valid app.
// It mutates and returns targets, so a plant can thread its live allocation
// through successive policy calls.
func ApplyResizes(targets []uint64, resizes []Resize) []uint64 {
	for _, r := range resizes {
		if r.App >= 0 && r.App < len(targets) {
			targets[r.App] = r.Target
		}
	}
	return targets
}

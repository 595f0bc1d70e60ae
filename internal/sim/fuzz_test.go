package sim

import (
	"math"
	"testing"

	"repro/internal/workload"
)

// FuzzConfigValidate drives Config.Validate with arbitrary field values:
// malformed configurations must be rejected with an error, never a panic.
func FuzzConfigValidate(f *testing.F) {
	def := DefaultConfig()
	f.Add(def.ReconfigIntervalCycles, def.TailPercentile, def.UMONWays, def.UMONSampleSets,
		def.MissCurvePoints, def.StepQuantumCycles, def.LLC.Lines, def.LLC.Ways, def.LLC.Partitions)
	f.Add(uint64(0), math.NaN(), -1, 0, 1, uint64(0), uint64(0), 0, -3)
	f.Add(^uint64(0), 100.0, 1<<30, 1<<30, 1<<30, ^uint64(0), ^uint64(0), 1<<20, 1<<20)
	f.Fuzz(func(t *testing.T, reconfig uint64, pct float64,
		umonWays, umonSets, curvePts int, quantum, llcLines uint64, llcWays, parts int) {
		cfg := DefaultConfig()
		cfg.ReconfigIntervalCycles = reconfig
		cfg.TailPercentile = pct
		cfg.UMONWays = umonWays
		cfg.UMONSampleSets = umonSets
		cfg.MissCurvePoints = curvePts
		cfg.StepQuantumCycles = quantum
		cfg.LLC.Lines = llcLines
		cfg.LLC.Ways = llcWays
		cfg.LLC.Partitions = parts
		_ = cfg.Validate() // must not panic on any input
	})
}

// FuzzHierarchyForKB drives the KB-to-level-config conversion (the exact
// surface the -l1kb/-l2kb flags expose) with arbitrary floats: any input —
// negative, NaN, infinite, enormous — must yield a config whose validation
// returns cleanly, never a panic.
func FuzzHierarchyForKB(f *testing.F) {
	f.Add(32.0, 256.0, false)
	f.Add(0.0, 0.0, true)
	f.Add(-5.0, math.NaN(), false)
	f.Add(math.Inf(1), math.Inf(-1), true)
	f.Add(1e300, 1e-300, false)
	f.Fuzz(func(t *testing.T, l1KB, l2KB float64, inclusive bool) {
		hier := HierarchyForKB(l1KB, l2KB, inclusive)
		_ = hier.Validate()
		cfg := DefaultConfig()
		cfg.Hierarchy = hier
		_ = cfg.Validate()
	})
}

// FuzzAppSpecScheduleValidate pairs the schedule validator with AppSpec: a
// spec carrying arbitrary schedule parameters must validate or error, and a
// simulator constructed from a validated spec must build without panicking.
func FuzzAppSpecScheduleValidate(f *testing.F) {
	f.Add("burst", uint64(1000), uint64(1000), uint64(0), 2.0, 1.0, 2.0, 0.5, 1e6, 1e6, 1.0)
	f.Add("mmpp", uint64(0), uint64(0), uint64(0), math.NaN(), 0.0, math.Inf(1), -1.0, 0.0, 1e20, 0.0)
	f.Fuzz(func(t *testing.T, kind string, at, dur, period uint64, mult, from, to, amp, on, off, low float64) {
		lc, err := workload.LCByName("masstree")
		if err != nil {
			t.Fatal(err)
		}
		spec := AppSpec{LC: &lc, Load: 0.2, MeanInterarrival: 60_000}
		spec.Sched.Kind = workload.ScheduleKind(kind)
		spec.Sched.AtCycle = at
		spec.Sched.DurationCycles = dur
		spec.Sched.PeriodCycles = period
		spec.Sched.Mult = mult
		spec.Sched.From = from
		spec.Sched.To = to
		spec.Sched.Amp = amp
		spec.Sched.OnCycles = on
		spec.Sched.OffCycles = off
		spec.Sched.Low = low
		_ = spec.Validate() // must not panic
	})
}

package core

import (
	"math"

	"repro/internal/monitor"
)

// Sizing is the outcome of Ubik's idle/boost sizing for one latency-critical
// application (Figure 7 of the paper): the partition size to use while the
// application is idle, the boosted size to use when it becomes active, and the
// expected gain of this choice over not downsizing at all.
type Sizing struct {
	// SIdle is the allocation while the application is idle.
	SIdle uint64
	// SBoost is the allocation used right after an idle->active transition,
	// until the lost cycles have been recovered.
	SBoost uint64
	// SActive is the steady-state active allocation the sizing was computed
	// against.
	SActive uint64
	// Gain is the net batch benefit (extra hits minus extra misses) of the
	// chosen option; the no-downsizing option has gain 0.
	Gain float64
	// LossBound is the conservative bound on cycles lost by idling at SIdle.
	LossBound float64
	// TransientBound is the conservative bound on the idle->boost transient.
	TransientBound float64
}

// SizingInput carries everything Ubik needs to size one latency-critical
// partition.
type SizingInput struct {
	// Curve is the application's miss curve (fine-grained).
	Curve monitor.MissCurve
	// C is the average compute cycles between LLC accesses (no miss stalls).
	C float64
	// M is the average exposed cycles per miss.
	M float64
	// SActive is the steady-state active size (the target size in strict Ubik,
	// possibly smaller with slack).
	SActive uint64
	// SBoostMax caps the boost size (total lines / number of LC apps, so
	// latency-critical applications can never interfere with each other).
	SBoostMax uint64
	// DeadlineCycles is the tail-latency deadline by which lost progress must
	// be recovered.
	DeadlineCycles uint64
	// BucketLines is the allocation granularity of the boost-size search.
	BucketLines uint64
	// IdleFraction is the fraction of time the application has recently spent
	// idle, used to weigh the benefit of freeing space.
	IdleFraction float64
	// BatchHitsGain returns the extra batch hits per interval from extra lines.
	BatchHitsGain func(extraLines uint64) float64
	// BatchMissCost returns the extra batch misses per interval from lost lines.
	BatchMissCost func(lostLines uint64) float64
	// ExactTransients selects the exact summations instead of the conservative
	// bounds (used only by the ablation study; the paper's Ubik uses bounds).
	ExactTransients bool
}

// ComputeSizing evaluates Ubik's idle-size options and returns the best
// feasible sizing. The no-downsizing option (SIdle = SActive, SBoost =
// SActive) is always feasible, so the result is always usable.
func ComputeSizing(in SizingInput) Sizing {
	best := Sizing{SIdle: in.SActive, SBoost: in.SActive, SActive: in.SActive, Gain: 0}
	bucket := in.BucketLines
	if bucket == 0 {
		bucket = 1
	}
	if in.SBoostMax < in.SActive {
		in.SBoostMax = in.SActive
	}
	pActive := in.Curve.MissProbAt(in.SActive)

	hitsGain := in.BatchHitsGain
	if hitsGain == nil {
		hitsGain = func(uint64) float64 { return 0 }
	}
	missCost := in.BatchMissCost
	if missCost == nil {
		missCost = func(uint64) float64 { return 0 }
	}

	for i := 1; i <= idleOptions; i++ {
		sIdle := in.SActive * uint64(idleOptions-i) / uint64(idleOptions)
		pIdle := in.Curve.MissProbAt(sIdle)

		var loss float64
		if in.ExactTransients {
			loss = LostCyclesExact(in.Curve, sIdle, in.SActive, in.M, 32)
		} else {
			loss = LostCyclesBound(sIdle, in.SActive, pIdle, pActive, in.M)
		}

		sBoost, transient, feasible := findBoostSize(in, sIdle, pActive, loss, bucket)
		if !feasible {
			// Lower idle sizes only get harder (the paper stops evaluating
			// once an option is infeasible).
			break
		}

		benefit := hitsGain(in.SActive-sIdle) * in.IdleFraction
		cost := missCost(sBoost-in.SActive) * (1 - in.IdleFraction)
		gain := benefit - cost
		if gain > best.Gain {
			best = Sizing{
				SIdle: sIdle, SBoost: sBoost, SActive: in.SActive,
				Gain: gain, LossBound: loss, TransientBound: transient,
			}
		}
	}
	return best
}

// findBoostSize returns the smallest boost size that recovers the lost cycles
// by the deadline, the bound on its transient, and whether any boost size
// works.
func findBoostSize(in SizingInput, sIdle uint64, pActive, loss float64, bucket uint64) (uint64, float64, bool) {
	if loss <= 0 {
		// Nothing to recover: no boost needed at all.
		return in.SActive, 0, true
	}
	deadline := float64(in.DeadlineCycles)
	if deadline <= 0 {
		return in.SActive, 0, false
	}
	for sBoost := in.SActive + bucket; ; sBoost += bucket {
		if sBoost > in.SBoostMax {
			return 0, 0, false
		}
		pBoost := in.Curve.MissProbAt(sBoost)
		var transient float64
		if in.ExactTransients {
			transient = TransientExactCycles(in.Curve, sIdle, sBoost, in.C, in.M, 32)
		} else {
			transient = TransientBoundCycles(sIdle, sBoost, in.C, pBoost, in.M)
		}
		if math.IsInf(transient, 1) || transient >= deadline {
			// Growing further only lengthens the transient; no boost size can
			// meet the deadline from this idle size.
			return 0, 0, false
		}
		rate := GainRatePerCycle(pActive, pBoost, in.C, in.M)
		if rate <= 0 {
			// This boost size recovers nothing; a larger one might.
			continue
		}
		if (deadline-transient)*rate >= loss {
			return sBoost, transient, true
		}
	}
}

// ReduceActiveSize implements the slack mechanism's resizing of s_active
// (Section 5.2): it returns the smallest allocation at which the application's
// expected misses exceed those at the target size by at most missSlack
// (a fraction). With missSlack == 0 it returns the target size.
func ReduceActiveSize(curve monitor.MissCurve, targetLines uint64, missSlack float64, bucket uint64) uint64 {
	if missSlack <= 0 || targetLines == 0 {
		return targetLines
	}
	if bucket == 0 {
		bucket = 1
	}
	allowed := curve.At(targetLines) * (1 + missSlack)
	best := targetLines
	for s := uint64(0); s < targetLines; s += bucket {
		if curve.At(s) <= allowed {
			best = s
			break
		}
	}
	return best
}

package core

import (
	"testing"

	"repro/internal/monitor"
	"repro/internal/policy/policytest"
)

// sensitiveInput builds a sizing input for a cache-sensitive LC app: its miss
// probability keeps falling well past the target size, so boosting above the
// target recovers cycles (the masstree/shore/specjbb shape).
func sensitiveInput() SizingInput {
	curve := policytest.LinearCurve(6144, 2048, 500, 20, 1000)
	return SizingInput{
		Curve:          curve,
		C:              60,
		M:              100,
		SActive:        1024,
		SBoostMax:      2048,
		DeadlineCycles: 400_000,
		BucketLines:    24,
		IdleFraction:   0.8,
		BatchHitsGain:  func(extra uint64) float64 { return float64(extra) * 2 },
		BatchMissCost:  func(lost uint64) float64 { return float64(lost) * 2 },
	}
}

// insensitiveInput builds a sizing input for an app whose miss curve is flat:
// it loses nothing by being downsized.
func insensitiveInput() SizingInput {
	in := sensitiveInput()
	in.Curve = monitor.FlatCurve(6144, 65, 30, 1000)
	return in
}

func TestComputeSizingInsensitiveAppDownsizesFully(t *testing.T) {
	s := ComputeSizing(insensitiveInput())
	if s.SIdle != 0 {
		t.Errorf("flat-curve app should idle at 0 lines, got %d", s.SIdle)
	}
	if s.SBoost != s.SActive {
		t.Errorf("flat-curve app needs no boost, got %d (active %d)", s.SBoost, s.SActive)
	}
	if s.Gain <= 0 {
		t.Errorf("downsizing a flat-curve app should have positive gain")
	}
}

func TestComputeSizingSensitiveAppBoosts(t *testing.T) {
	s := ComputeSizing(sensitiveInput())
	if s.SIdle >= s.SActive {
		t.Errorf("some downsizing should be possible, got sIdle=%d", s.SIdle)
	}
	if s.SIdle > 0 && s.SBoost <= s.SActive {
		t.Errorf("a partially downsized sensitive app must boost above sActive, got %d", s.SBoost)
	}
	if s.SBoost > 2048 {
		t.Errorf("boost must not exceed SBoostMax, got %d", s.SBoost)
	}
	if s.TransientBound > 400_000 {
		t.Errorf("chosen transient bound %v must fit in the deadline", s.TransientBound)
	}
}

func TestComputeSizingShortDeadlineIsConservative(t *testing.T) {
	long := sensitiveInput()
	short := sensitiveInput()
	short.DeadlineCycles = 20_000 // too short to recover much
	sLong := ComputeSizing(long)
	sShort := ComputeSizing(short)
	if sShort.SIdle < sLong.SIdle {
		t.Errorf("a shorter deadline must not allow more downsizing: short=%d long=%d", sShort.SIdle, sLong.SIdle)
	}
}

func TestComputeSizingZeroDeadlineNeverDownsizes(t *testing.T) {
	in := sensitiveInput()
	in.DeadlineCycles = 0
	s := ComputeSizing(in)
	if s.SIdle != in.SActive || s.SBoost != in.SActive {
		t.Errorf("without a deadline the only feasible option is no downsizing, got %+v", s)
	}
}

func TestComputeSizingRespectsBoostCap(t *testing.T) {
	in := sensitiveInput()
	in.SBoostMax = in.SActive // boosting impossible
	s := ComputeSizing(in)
	if s.SBoost > in.SActive {
		t.Errorf("boost exceeded cap: %d > %d", s.SBoost, in.SActive)
	}
	// With no room to boost and a steep curve, Ubik should not downsize
	// (the transient cannot be compensated).
	if s.SIdle < in.SActive*10/16 {
		t.Errorf("without boost headroom, aggressive downsizing (%d of %d) is unsafe", s.SIdle, in.SActive)
	}
}

func TestComputeSizingCostBenefit(t *testing.T) {
	// If batch apps gain nothing from extra space, there is no reason to
	// downsize a sensitive app (gain would be <= 0), so Ubik keeps the target.
	in := sensitiveInput()
	in.BatchHitsGain = func(uint64) float64 { return 0 }
	in.BatchMissCost = func(lost uint64) float64 { return float64(lost) }
	s := ComputeSizing(in)
	if s.SIdle != in.SActive {
		t.Errorf("with zero batch benefit Ubik should not downsize, got sIdle=%d", s.SIdle)
	}
}

func TestComputeSizingDefaults(t *testing.T) {
	in := sensitiveInput()
	in.BucketLines = 0
	in.BatchHitsGain = nil
	in.BatchMissCost = nil
	s := ComputeSizing(in)
	if s.SActive != in.SActive {
		t.Errorf("sizing should carry SActive through")
	}
	// With nil cost/benefit hooks the gain is 0 everywhere, so the default
	// no-downsizing option wins.
	if s.SIdle != in.SActive {
		t.Errorf("nil hooks should keep the no-downsizing option")
	}
}

func TestComputeSizingExactModeAtLeastAsAggressive(t *testing.T) {
	bound := sensitiveInput()
	exact := sensitiveInput()
	exact.ExactTransients = true
	sBound := ComputeSizing(bound)
	sExact := ComputeSizing(exact)
	// The exact transient/loss sums are tighter, so the exact mode can only
	// downsize at least as far (never less).
	if sExact.SIdle > sBound.SIdle {
		t.Errorf("exact sizing should be at least as aggressive: exact sIdle=%d, bound sIdle=%d", sExact.SIdle, sBound.SIdle)
	}
}

func TestReduceActiveSize(t *testing.T) {
	curve := policytest.LinearCurve(6144, 2048, 1000, 100, 2000)
	target := uint64(1024)
	if got := ReduceActiveSize(curve, target, 0, 16); got != target {
		t.Errorf("zero slack must keep the target, got %d", got)
	}
	reduced := ReduceActiveSize(curve, target, 0.10, 16)
	if reduced > target {
		t.Errorf("reduced size should not exceed target")
	}
	if reduced == target {
		t.Errorf("a 10%% miss slack should allow some reduction on a linear curve")
	}
	// The miss count at the reduced size must respect the slack bound.
	if curve.At(reduced) > curve.At(target)*1.10+1e-9 {
		t.Errorf("reduced size violates the miss-slack bound")
	}
	// A flat curve can be reduced to zero.
	flat := monitor.FlatCurve(6144, 65, 50, 1000)
	if got := ReduceActiveSize(flat, target, 0.01, 16); got != 0 {
		t.Errorf("flat curve should reduce to 0, got %d", got)
	}
	if got := ReduceActiveSize(curve, 0, 0.1, 16); got != 0 {
		t.Errorf("zero target stays zero")
	}
	if got := ReduceActiveSize(curve, target, 0.1, 0); got > target {
		t.Errorf("zero bucket should clamp, got %d", got)
	}
}

func TestSlackControllerRaisesAndLowers(t *testing.T) {
	c := NewSlackController(0.05)
	if c.MissSlack() != 0 {
		t.Errorf("initial miss slack should be 0")
	}
	// Requests finishing well under the allowed latency open up miss slack.
	for i := 0; i < 200; i++ {
		c.Observe(100_000, 1_000_000)
	}
	opened := c.MissSlack()
	if opened <= 0 {
		t.Errorf("comfortable latencies should open miss slack")
	}
	if opened > c.MaxMissSlack+1e-12 {
		t.Errorf("miss slack exceeded its cap: %v", opened)
	}
	// Requests violating the allowed latency close it again, faster.
	for i := 0; i < 60; i++ {
		c.Observe(3_000_000, 1_000_000)
	}
	if c.MissSlack() >= opened {
		t.Errorf("late requests should shrink the miss slack")
	}
	c.Reset()
	if c.MissSlack() != 0 {
		t.Errorf("reset should clear miss slack")
	}
}

func TestSlackControllerStrictIsInert(t *testing.T) {
	c := NewSlackController(0)
	for i := 0; i < 100; i++ {
		c.Observe(1, 1_000_000)
	}
	if c.MissSlack() != 0 {
		t.Errorf("strict (0 slack) controller must never open miss slack")
	}
	// Zero deadline observations are ignored.
	c2 := NewSlackController(0.05)
	c2.Observe(100, 0)
	if c2.MissSlack() != 0 {
		t.Errorf("zero-deadline observations should be ignored")
	}
}

package policy_test

import (
	"testing"

	"repro/internal/monitor"
	"repro/internal/policy"
	"repro/internal/policy/policytest"
)

func sumTargets(resizes []policy.Resize) uint64 {
	var s uint64
	for _, r := range resizes {
		s += r.Target
	}
	return s
}

func targetOf(t *testing.T, resizes []policy.Resize, app int) uint64 {
	t.Helper()
	for _, r := range resizes {
		if r.App == app {
			return r.Target
		}
	}
	t.Fatalf("no resize for app %d in %v", app, resizes)
	return 0
}

func TestWeightedCurveCost(t *testing.T) {
	c := policytest.LinearCurve(1000, 1000, 100, 0, 100)
	w := policy.WeightedCurve{Curve: c, Weight: 2}
	if got := w.CostAt(0); got != 200 {
		t.Errorf("CostAt(0) = %v, want 200", got)
	}
	zero := policy.WeightedCurve{Curve: c, Weight: 0}
	if got := zero.CostAt(0); got != 100 {
		t.Errorf("zero weight should default to 1: got %v", got)
	}
}

func TestLookaheadPrefersSensitiveApp(t *testing.T) {
	// App 0 is cache-sensitive; app 1 is insensitive. Lookahead should give
	// most of the budget to app 0.
	curves := []policy.WeightedCurve{
		{Curve: policytest.LinearCurve(1024, 800, 1000, 0, 1000), Weight: 100},
		{Curve: monitor.FlatCurve(1024, 65, 500, 1000), Weight: 100},
	}
	alloc := policy.Lookahead(curves, 1024, 4)
	if alloc[0] < 700 {
		t.Errorf("sensitive app got %d lines, want most of the budget", alloc[0])
	}
	if alloc[0]+alloc[1] != 1024 {
		t.Errorf("full budget should be assigned: %v", alloc)
	}
}

func TestLookaheadRespectsMinMax(t *testing.T) {
	curves := []policy.WeightedCurve{
		{Curve: policytest.LinearCurve(1024, 1024, 1000, 0, 1000), Weight: 1, Max: 200},
		{Curve: policytest.LinearCurve(1024, 1024, 1000, 0, 1000), Weight: 1, Min: 300},
	}
	alloc := policy.Lookahead(curves, 1000, 4)
	if alloc[0] > 200+4 {
		t.Errorf("app 0 exceeded its cap: %d", alloc[0])
	}
	if alloc[1] < 300 {
		t.Errorf("app 1 did not get its minimum: %d", alloc[1])
	}
}

func TestLookaheadEdgeCases(t *testing.T) {
	if alloc := policy.Lookahead(nil, 100, 4); len(alloc) != 0 {
		t.Errorf("no curves should give empty allocation")
	}
	curves := []policy.WeightedCurve{{Curve: monitor.FlatCurve(100, 65, 10, 10), Weight: 1}}
	if alloc := policy.Lookahead(curves, 0, 4); alloc[0] != 0 {
		t.Errorf("zero budget should give zero allocation")
	}
	// Zero bucket size is clamped to 1 and still terminates.
	alloc := policy.Lookahead(curves, 64, 0)
	if alloc[0] != 64 {
		t.Errorf("flat curve should still absorb leftover budget: %d", alloc[0])
	}
	// Minimums larger than the budget are truncated.
	big := []policy.WeightedCurve{{Curve: monitor.FlatCurve(100, 65, 10, 10), Weight: 1, Min: 1000}}
	if a := policy.Lookahead(big, 100, 4); a[0] != 100 {
		t.Errorf("minimum should be truncated to the budget: %d", a[0])
	}
}

func TestLookaheadNeverExceedsBudget(t *testing.T) {
	curves := []policy.WeightedCurve{
		{Curve: policytest.LinearCurve(4096, 3000, 5000, 100, 5000), Weight: 50},
		{Curve: policytest.LinearCurve(4096, 1000, 2000, 50, 2000), Weight: 80},
		{Curve: monitor.FlatCurve(4096, 65, 1000, 1000), Weight: 120},
	}
	for _, budget := range []uint64{0, 16, 100, 1000, 4096} {
		alloc := policy.Lookahead(curves, budget, 16)
		var total uint64
		for _, a := range alloc {
			total += a
		}
		if total > budget {
			t.Errorf("budget %d exceeded: allocated %d", budget, total)
		}
	}
}

// apply folds a policy's resizes into the view's targets, the way a plant
// threads its live allocation through successive policy calls.
func apply(v *policy.PlantView, resizes []policy.Resize) {
	targets := make([]uint64, len(v.Apps))
	for i, a := range v.Apps {
		targets[i] = a.CurrentTarget
	}
	for i, target := range policy.ApplyResizes(targets, resizes) {
		v.Apps[i].CurrentTarget = target
	}
}

// mixView builds a 6-app view: apps 0-2 latency-critical, apps 3-5 batch.
func mixView() *policy.PlantView {
	total := uint64(6144)
	v := &policy.PlantView{Lines: total, EpochCycles: 1_000_000}
	for i := 0; i < 3; i++ {
		v.Apps = append(v.Apps, policy.AppObservation{
			LatencyCritical:    true,
			Active:             i == 0, // only LC app 0 is active right now
			Curve:              policytest.LinearCurve(total, 1024, 200, 20, 400),
			MissPenalty:        100,
			CyclesPerAccessHit: 60,
			LCTargetLines:      1024,
			DeadlineCycles:     500_000,
			IdleFraction:       0.8,
			CurrentTarget:      1024,
		})
	}
	// Batch apps: one sensitive, one fitting, one streaming.
	batchCurves := []struct {
		curve monitor.MissCurve
	}{
		{policytest.LinearCurve(total, 2048, 5000, 500, 8000)},
		{policytest.LinearCurve(total, 1600, 4000, 200, 6000)},
		{monitor.FlatCurve(total, 65, 9000, 10000)},
	}
	for _, b := range batchCurves {
		v.Apps = append(v.Apps, policy.AppObservation{
			Active:             true,
			Curve:              b.curve,
			MissPenalty:        80,
			CyclesPerAccessHit: 30,
			CurrentTarget:      1024,
		})
	}
	return v
}

func TestLRUPolicyIsNoOp(t *testing.T) {
	p := policy.NewLRU()
	if p.Name() != "LRU" {
		t.Errorf("name wrong")
	}
	v := mixView()
	if got := p.Reconfigure(v); got != nil {
		t.Errorf("LRU should issue no resizes, got %v", got)
	}
	if p.OnActive(0, v) != nil || p.OnIdle(0, v) != nil || p.OnLCCheck(0, v) != nil || p.OnRequestComplete(0, 1, v) != nil {
		t.Errorf("LRU event hooks should be no-ops")
	}
}

func TestUCPAllocatesWholeCache(t *testing.T) {
	p := policy.NewUCP()
	if p.Name() != "UCP" {
		t.Errorf("name wrong")
	}
	v := mixView()
	resizes := p.Reconfigure(v)
	if len(resizes) != 6 {
		t.Fatalf("expected resizes for all 6 apps, got %d", len(resizes))
	}
	total := sumTargets(resizes)
	if total > v.Lines || total < v.Lines*95/100 {
		t.Errorf("UCP should allocate (almost) the whole cache: %d of %d", total, v.Lines)
	}
}

func TestUCPIgnoresLatencyCriticality(t *testing.T) {
	// The Section 4 failure mode: an idle latency-critical app with a
	// low-utility curve gets a small partition under UCP.
	v := mixView()
	// Make the LC apps' curves look nearly flat (low utility), as they do
	// when the apps are mostly idle.
	for i := 0; i < 3; i++ {
		v.Apps[i].Curve = monitor.FlatCurve(v.Lines, 65, 10, 20)
	}
	p := policy.NewUCP()
	resizes := p.Reconfigure(v)
	for i := 0; i < 3; i++ {
		if got := targetOf(t, resizes, i); got > v.Apps[i].LCTargetLines/2 {
			t.Errorf("UCP should starve low-utility LC app %d, gave %d lines", i, got)
		}
	}
}

func TestStaticLCPinsTargetsAndSplitsRest(t *testing.T) {
	p := policy.NewStaticLC()
	if p.Name() != "StaticLC" {
		t.Errorf("name wrong")
	}
	v := mixView()
	resizes := p.Reconfigure(v)
	var batchTotal uint64
	for i := 0; i < 3; i++ {
		if got := targetOf(t, resizes, i); got != 1024 {
			t.Errorf("LC app %d target = %d, want its full 1024 regardless of activity", i, got)
		}
	}
	for i := 3; i < 6; i++ {
		batchTotal += targetOf(t, resizes, i)
	}
	want := v.Lines - 3*1024
	if batchTotal > want || batchTotal < want*95/100 {
		t.Errorf("batch apps should share the remaining %d lines, got %d", want, batchTotal)
	}
}

func TestOnOffGivesSpaceOnlyWhenActive(t *testing.T) {
	p := policy.NewOnOff()
	if p.Name() != "OnOff" {
		t.Errorf("name wrong")
	}
	v := mixView() // LC app 0 active, 1 and 2 idle
	resizes := p.Reconfigure(v)
	if got := targetOf(t, resizes, 0); got != 1024 {
		t.Errorf("active LC app should get its target, got %d", got)
	}
	for i := 1; i < 3; i++ {
		if got := targetOf(t, resizes, i); got != 0 {
			t.Errorf("idle LC app %d should get nothing, got %d", i, got)
		}
	}
	// Batch apps should share total - 1*target.
	var batchTotal uint64
	for i := 3; i < 6; i++ {
		batchTotal += targetOf(t, resizes, i)
	}
	want := v.Lines - 1024
	if batchTotal > want || batchTotal < want*9/10 {
		t.Errorf("batch allocation %d, want about %d", batchTotal, want)
	}

	// Now LC app 1 becomes active: it should get its target back immediately.
	apply(v, resizes)
	v.Apps[1].Active = true
	resizes = p.OnActive(1, v)
	if got := targetOf(t, resizes, 1); got != 1024 {
		t.Errorf("newly active LC app should get its target, got %d", got)
	}
	var batchTotal2 uint64
	for i := 3; i < 6; i++ {
		batchTotal2 += targetOf(t, resizes, i)
	}
	if batchTotal2 >= batchTotal {
		t.Errorf("batch space should shrink when another LC app activates: %d -> %d", batchTotal, batchTotal2)
	}

	// And when it goes idle again, batch space grows back.
	apply(v, resizes)
	v.Apps[1].Active = false
	resizes = p.OnIdle(1, v)
	if got := targetOf(t, resizes, 1); got != 0 {
		t.Errorf("idle LC app should get nothing, got %d", got)
	}
	var batchTotal3 uint64
	for i := 3; i < 6; i++ {
		batchTotal3 += targetOf(t, resizes, i)
	}
	if batchTotal3 <= batchTotal2 {
		t.Errorf("batch space should grow when an LC app idles: %d -> %d", batchTotal2, batchTotal3)
	}
}

func TestOnOffBeforeReconfigureIsSafe(t *testing.T) {
	p := policy.NewOnOff()
	v := mixView()
	// Events before any Reconfigure must not panic and may return nothing.
	if got := p.OnActive(0, v); got != nil {
		t.Errorf("OnActive before Reconfigure should be a no-op, got %v", got)
	}
	if got := p.OnLCCheck(0, v); got != nil {
		t.Errorf("OnLCCheck should be a no-op")
	}
	if got := p.OnRequestComplete(0, 100, v); got != nil {
		t.Errorf("OnRequestComplete should be a no-op")
	}
}

func TestPoliciesHandleZeroApps(t *testing.T) {
	empty := &policy.PlantView{Lines: 1024}
	for _, p := range []policy.Policy{policy.NewUCP(), policy.NewStaticLC(), policy.NewOnOff(), policy.NewLRU()} {
		if got := p.Reconfigure(empty); len(got) != 0 {
			t.Errorf("%s with zero apps should return no resizes", p.Name())
		}
	}
}

func TestUCPZeroBucketsDefaults(t *testing.T) {
	p := &policy.UCP{}
	v := mixView()
	resizes := p.Reconfigure(v)
	if len(resizes) != 6 {
		t.Errorf("UCP with zero Buckets should still work")
	}
	s := &policy.StaticLC{}
	if len(s.Reconfigure(v)) != 6 {
		t.Errorf("StaticLC with zero Buckets should still work")
	}
	o := &policy.OnOff{}
	if len(o.Reconfigure(v)) != 6 {
		t.Errorf("OnOff with zero Buckets should still work")
	}
}

// cliffCurve builds a miss curve that stays at misses until the cliff
// allocation and drops to floor beyond it — zero marginal utility for any
// single bucket below the cliff, large utility for a chunk that crosses it.
func cliffCurve(totalLines, cliff uint64, misses, floor, accesses float64) monitor.MissCurve {
	points := 65
	c := monitor.MissCurve{TotalLines: totalLines, Accesses: accesses, Misses: make([]float64, points)}
	for i := 0; i < points; i++ {
		lines := float64(i) / float64(points-1) * float64(totalLines)
		if lines < float64(cliff) {
			c.Misses[i] = misses
		} else {
			c.Misses[i] = floor
		}
	}
	return c
}

// TestLookaheadCrossesUtilityCliffs pins the defining property of Lookahead
// over greedy hill-climbing (Qureshi & Patt): an application whose utility
// only materialises past a cliff still wins the space, because every feasible
// chunk size is scanned for the best marginal utility per line.
func TestLookaheadCrossesUtilityCliffs(t *testing.T) {
	curves := []policy.WeightedCurve{
		{Curve: cliffCurve(1024, 512, 1000, 10, 1000), Weight: 100},
		{Curve: policytest.LinearCurve(1024, 1024, 100, 90, 1000), Weight: 1},
	}
	alloc := policy.Lookahead(curves, 1024, 16)
	if alloc[0] < 512 {
		t.Errorf("cliff app got %d lines, want at least the 512-line cliff", alloc[0])
	}
}

// TestLookaheadAllCapped exercises the leftover-spread exit: when every
// application is capped below the budget, the spread loop must terminate and
// never push an allocation past its cap.
func TestLookaheadAllCapped(t *testing.T) {
	curves := []policy.WeightedCurve{
		{Curve: policytest.LinearCurve(1024, 1024, 1000, 0, 1000), Weight: 1, Max: 64},
		{Curve: policytest.LinearCurve(1024, 1024, 1000, 0, 1000), Weight: 1, Max: 32},
	}
	alloc := policy.Lookahead(curves, 1024, 16)
	if alloc[0] > 64 || alloc[1] > 32 {
		t.Errorf("caps violated: %v", alloc)
	}
	if alloc[0]+alloc[1] > 1024 {
		t.Errorf("budget violated: %v", alloc)
	}
}

// TestLookaheadBucketLargerThanBudget: a bucket that does not fit leaves only
// the minimum grants.
func TestLookaheadBucketLargerThanBudget(t *testing.T) {
	curves := []policy.WeightedCurve{
		{Curve: policytest.LinearCurve(1024, 1024, 1000, 0, 1000), Weight: 1, Min: 10},
	}
	alloc := policy.Lookahead(curves, 100, 128)
	if alloc[0] != 10 {
		t.Errorf("with no whole bucket available only the minimum should be granted, got %v", alloc)
	}
}

package core

import (
	"testing"

	"repro/internal/monitor"
	"repro/internal/policy"
	"repro/internal/policy/policytest"
)

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

func hasResizeFor(resizes []policy.Resize, app int) bool {
	for _, r := range resizes {
		if r.App == app {
			return true
		}
	}
	return false
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

// ubikView builds the canonical 3 LC + 3 batch view used by the Ubik tests.
// LC apps have moderately steep miss curves; batch apps want space.
func ubikView() *policy.PlantView {
	total := uint64(6144)
	v := &policy.PlantView{Lines: total, EpochCycles: 2_000_000}
	for i := 0; i < 3; i++ {
		v.Apps = append(v.Apps, policy.AppObservation{
			LatencyCritical:    true,
			Active:             false,
			Curve:              policytest.LinearCurve(total, 2560, 400, 40, 1000),
			MissPenalty:        100,
			CyclesPerAccessHit: 60,
			LCTargetLines:      1024,
			DeadlineCycles:     500_000,
			IdleFraction:       0.8,
			CurrentTarget:      1024,
			Occupancy:          1024,
		})
	}
	for i := 0; i < 3; i++ {
		v.Apps = append(v.Apps, policy.AppObservation{
			Active:             true,
			Curve:              policytest.LinearCurve(total, 3000, 6000, 500, 8000),
			MissPenalty:        80,
			CyclesPerAccessHit: 30,
			CurrentTarget:      1024,
			Occupancy:          1024,
		})
	}
	return v
}

func TestUbikNames(t *testing.T) {
	if NewUbik().Name() != "Ubik" {
		t.Errorf("strict Ubik name wrong")
	}
	if NewUbikWithSlack(0.05).Name() != "Ubik(slack=5%)" {
		t.Errorf("slack Ubik name wrong: %s", NewUbikWithSlack(0.05).Name())
	}
	cfg := NewUbik().Config()
	if cfg.Buckets != 256 || cfg.Options != 16 {
		t.Errorf("defaults not applied: %+v", cfg)
	}
}

func TestUbikReconfigureDownsizesIdleLCApps(t *testing.T) {
	u := NewUbik()
	v := ubikView()
	resizes := u.Reconfigure(v)
	if len(resizes) != 6 {
		t.Fatalf("expected resizes for all apps, got %d", len(resizes))
	}
	var batchTotal uint64
	for i := 0; i < 3; i++ {
		lcTarget := targetOf(t, resizes, i)
		if lcTarget >= 1024 {
			t.Errorf("idle LC app %d should be downsized below its 1024-line target, got %d", i, lcTarget)
		}
		s, ok := u.Sizing(i)
		if !ok {
			t.Fatalf("no sizing recorded for app %d", i)
		}
		if lcTarget != s.SIdle {
			t.Errorf("idle LC app %d target %d should equal its sIdle %d", i, lcTarget, s.SIdle)
		}
	}
	for i := 3; i < 6; i++ {
		batchTotal += targetOf(t, resizes, i)
	}
	// Batch apps get everything the LC apps do not hold.
	var lcTotal uint64
	for i := 0; i < 3; i++ {
		lcTotal += targetOf(t, resizes, i)
	}
	if batchTotal+lcTotal > v.Lines {
		t.Errorf("allocations exceed the cache: %d + %d > %d", batchTotal, lcTotal, v.Lines)
	}
	if batchTotal < v.Lines-3*1024 {
		t.Errorf("batch apps should get at least the StaticLC share, got %d", batchTotal)
	}
}

func TestUbikBoostOnActivation(t *testing.T) {
	u := NewUbik()
	v := ubikView()
	apply(v, u.Reconfigure(v))

	// LC app 0 becomes active: it must be boosted above sActive if it was
	// downsized while idle.
	v.Apps[0].Active = true
	resizes := u.OnActive(0, v)
	s, _ := u.Sizing(0)
	if s.SIdle < s.SActive && !u.Boosting(0) {
		t.Fatalf("a downsized app must boost on activation")
	}
	if u.Boosting(0) {
		if got := targetOf(t, resizes, 0); got != s.SBoost {
			t.Errorf("boosted target %d should equal sBoost %d", got, s.SBoost)
		}
		if s.SBoost <= s.SActive && s.SIdle < s.SActive {
			t.Errorf("boost size should exceed sActive when the app idled below it")
		}
	}
	apply(v, resizes)

	// Batch apps must have shrunk to make room for the boost.
	var batchTotal uint64
	for i := 3; i < 6; i++ {
		batchTotal += v.Apps[i].CurrentTarget
	}
	if batchTotal+targetOf(t, resizes, 0) > v.Lines {
		t.Errorf("boost must come out of batch space")
	}
}

func TestUbikDeboostWhenRecovered(t *testing.T) {
	u := NewUbik()
	v := ubikView()
	apply(v, u.Reconfigure(v))
	v.Apps[0].Active = true
	v.Apps[0].Misses = 1000
	apply(v, u.OnActive(0, v))
	if !u.Boosting(0) {
		t.Skip("app was not downsized enough to boost; nothing to deboost")
	}

	// While actual misses exceed what the UMON says the app would have had at
	// sActive, the boost must persist.
	v.Apps[0].Misses = 1100 // 100 actual misses since boost
	v.Apps[0].MissesAtSince = func(_ monitor.UMONSnapshot, _ uint64) float64 { return 10 }
	if resizes := u.OnLCCheck(0, v); resizes != nil {
		t.Errorf("boost should persist while the app is still behind, got %v", resizes)
	}
	if !u.Boosting(0) {
		t.Errorf("still boosting expected")
	}

	// Once the UMON-tracked would-have-been misses exceed the actual misses
	// (plus guard), the lost cycles are recovered and Ubik de-boosts.
	v.Apps[0].MissesAtSince = func(_ monitor.UMONSnapshot, _ uint64) float64 { return 200 }
	resizes := u.OnLCCheck(0, v)
	if resizes == nil {
		t.Fatalf("expected de-boost resizes")
	}
	if u.Boosting(0) {
		t.Errorf("de-boost should clear the boosting state")
	}
	s, _ := u.Sizing(0)
	if got := targetOf(t, resizes, 0); got != s.SActive {
		t.Errorf("after de-boost the target should be sActive (%d), got %d", s.SActive, got)
	}
}

func TestUbikBoostTimeout(t *testing.T) {
	u := NewUbik()
	v := ubikView()
	apply(v, u.Reconfigure(v))
	v.Apps[0].Active = true
	apply(v, u.OnActive(0, v))
	if !u.Boosting(0) {
		t.Skip("app was not downsized enough to boost")
	}
	// Never "recovers" according to the UMON, but the deadline-based backstop
	// eventually de-boosts it.
	v.Apps[0].MissesAtSince = func(_ monitor.UMONSnapshot, _ uint64) float64 { return 0 }
	v.Clock = 10 * 500_000 // far past BoostTimeoutDeadlines * deadline
	if resizes := u.OnLCCheck(0, v); resizes == nil {
		t.Fatalf("timeout should force a de-boost")
	}
	if u.Boosting(0) {
		t.Errorf("timeout should clear boosting")
	}
}

func TestUbikIdleReturnsSpace(t *testing.T) {
	u := NewUbik()
	v := ubikView()
	apply(v, u.Reconfigure(v))
	v.Apps[0].Active = true
	apply(v, u.OnActive(0, v))
	activeBatch := v.Apps[3].CurrentTarget + v.Apps[4].CurrentTarget + v.Apps[5].CurrentTarget

	v.Apps[0].Active = false
	resizes := u.OnIdle(0, v)
	apply(v, resizes)
	s, _ := u.Sizing(0)
	if got := targetOf(t, resizes, 0); got != s.SIdle {
		t.Errorf("idle target should be sIdle (%d), got %d", s.SIdle, got)
	}
	idleBatch := v.Apps[3].CurrentTarget + v.Apps[4].CurrentTarget + v.Apps[5].CurrentTarget
	if idleBatch < activeBatch {
		t.Errorf("batch space should not shrink when an LC app idles: %d -> %d", activeBatch, idleBatch)
	}
	if u.Boosting(0) {
		t.Errorf("idling should clear boosting")
	}
}

func TestUbikStrictNeverExceedsBoostCap(t *testing.T) {
	u := NewUbik()
	v := ubikView()
	resizes := u.Reconfigure(v)
	cap := v.Lines / 3
	for i := 0; i < 3; i++ {
		s, _ := u.Sizing(i)
		if s.SBoost > cap {
			t.Errorf("app %d boost %d exceeds total/numLC cap %d", i, s.SBoost, cap)
		}
	}
	_ = resizes
}

func TestUbikBeforeReconfigureActsLikeStaticLC(t *testing.T) {
	u := NewUbik()
	v := ubikView()
	// Events before the first Reconfigure: no repartitioning data yet, so Ubik
	// leaves targets alone (the simulator starts LC apps at their targets).
	if got := u.OnActive(0, v); got != nil {
		t.Errorf("OnActive before reconfigure should be a no-op, got %v", got)
	}
	if got := u.OnIdle(0, v); got != nil {
		t.Errorf("OnIdle before reconfigure should be a no-op, got %v", got)
	}
	if got := u.OnLCCheck(0, v); got != nil {
		t.Errorf("OnLCCheck before reconfigure should be a no-op, got %v", got)
	}
}

func TestUbikIgnoresBatchEvents(t *testing.T) {
	u := NewUbik()
	v := ubikView()
	u.Reconfigure(v)
	if u.OnActive(3, v) != nil || u.OnIdle(3, v) != nil || u.OnLCCheck(3, v) != nil || u.OnRequestComplete(3, 100, v) != nil {
		t.Errorf("batch-app events should be ignored")
	}
	if _, ok := u.Sizing(3); ok {
		t.Errorf("batch apps should have no sizing")
	}
	if u.Boosting(99) {
		t.Errorf("unknown app cannot be boosting")
	}
}

func TestUbikSlackShrinksActiveSizeForInsensitiveApps(t *testing.T) {
	// moses-like case: the LC app barely benefits from its target allocation,
	// so with slack Ubik can run it well below the target.
	strict := NewUbik()
	slacked := NewUbikWithSlack(0.05)
	vStrict := ubikView()
	vSlack := ubikView()
	for _, v := range []*policy.PlantView{vStrict, vSlack} {
		for i := 0; i < 3; i++ {
			v.Apps[i].Curve = monitor.FlatCurve(v.Lines, 65, 300, 1000)
		}
	}
	// Open up the miss slack with comfortable request latencies.
	slacked.Reconfigure(vSlack)
	for i := 0; i < 200; i++ {
		slacked.OnRequestComplete(0, 100_000, vSlack)
	}
	strictResizes := strict.Reconfigure(vStrict)
	slackResizes := slacked.Reconfigure(vSlack)

	// Both downsize the idle flat-curve app fully; the difference shows in the
	// *active* size, which the slack variant reduces below the target.
	vSlack.Apps[0].Active = true
	vStrict.Apps[0].Active = true
	sStrict, _ := strict.Sizing(0)
	sSlack, _ := slacked.Sizing(0)
	if sSlack.SActive >= sStrict.SActive {
		t.Errorf("slack should reduce sActive below the strict target: slack=%d strict=%d", sSlack.SActive, sStrict.SActive)
	}
	_, _ = strictResizes, slackResizes
}

func TestUbikLowWatermarkRevertsToStrictSizing(t *testing.T) {
	u := NewUbikWithSlack(0.05)
	v := ubikView()
	// Open miss slack so sActive is reduced.
	for i := 0; i < 3; i++ {
		v.Apps[i].Curve = policytest.LinearCurve(v.Lines, 2048, 400, 100, 1000)
	}
	u.Reconfigure(v)
	for i := 0; i < 300; i++ {
		u.OnRequestComplete(0, 50_000, v)
	}
	apply(v, u.Reconfigure(v))
	v.Apps[0].Active = true
	v.Apps[0].Misses = 5000
	apply(v, u.OnActive(0, v))
	if !u.Boosting(0) {
		t.Skip("app did not boost; low watermark not exercised")
	}
	// The request suffers far more misses than the no-downsizing estimate:
	// the low watermark must trip and revert to the strict sizing.
	v.Apps[0].Misses = 5000 + 1000
	v.Apps[0].MissesAtSince = func(_ monitor.UMONSnapshot, _ uint64) float64 { return 10 }
	resizes := u.OnLCCheck(0, v)
	if resizes == nil {
		t.Fatalf("low watermark should trigger a resize")
	}
	s, _ := u.Sizing(0)
	if s.SActive != v.Apps[0].LCTargetLines && targetOf(t, resizes, 0) < v.Apps[0].LCTargetLines {
		t.Errorf("after the low watermark the app should fall back to its full target sizing")
	}
	if !hasResizeFor(resizes, 0) {
		t.Errorf("expected a resize for the LC app")
	}
}

func TestUbikDisableDeboostKeepsBoostUntilTimeout(t *testing.T) {
	u := NewUbikWithConfig(Config{DisableDeboost: true})
	v := ubikView()
	apply(v, u.Reconfigure(v))
	v.Apps[0].Active = true
	apply(v, u.OnActive(0, v))
	if !u.Boosting(0) {
		t.Skip("app did not boost")
	}
	// Even a clearly recovered app stays boosted when de-boosting is disabled.
	v.Apps[0].MissesAtSince = func(_ monitor.UMONSnapshot, _ uint64) float64 { return 1e9 }
	if resizes := u.OnLCCheck(0, v); resizes != nil {
		t.Errorf("with de-boosting disabled the boost should persist, got %v", resizes)
	}
	if !u.Boosting(0) {
		t.Errorf("boost should persist")
	}
}

func TestRepartTableBasics(t *testing.T) {
	apps := []int{3, 4, 5}
	total := uint64(6144)
	curves := []monitor.MissCurve{
		policytest.LinearCurve(total, 3000, 6000, 500, 8000), // sensitive
		policytest.LinearCurve(total, 1600, 4000, 200, 6000), // fitting
		monitor.FlatCurve(total, 65, 9000, 10000),            // streaming
	}
	weights := []float64{80, 80, 80}
	tab := BuildRepartTable(apps, curves, weights, 3072, total, 256)
	if tab.Buckets() != 256 {
		t.Errorf("buckets = %d, want 256", tab.Buckets())
	}
	if tab.BucketLines() != total/256 {
		t.Errorf("bucket lines wrong")
	}
	// Allocations at any budget sum to at most that budget.
	for _, budget := range []uint64{0, 100, 1024, 3072, 6144, 10_000} {
		alloc := tab.AllocationsFor(budget)
		if len(alloc) != 3 {
			t.Fatalf("allocation length wrong")
		}
		var sum uint64
		for _, a := range alloc {
			sum += a
		}
		capped := budget
		if capped > total {
			capped = total
		}
		if sum > capped+tab.BucketLines() {
			t.Errorf("budget %d: allocations sum to %d", budget, sum)
		}
	}
	// Hits are monotonically non-decreasing in budget.
	prev := -1.0
	for b := uint64(0); b <= total; b += 512 {
		h := tab.HitsAt(b)
		if h+1e-6 < prev {
			t.Errorf("batch hits should not decrease with budget: %v -> %v at %d", prev, h, b)
		}
		prev = h
	}
	if tab.HitsGain(2048, 1024) < 0 || tab.MissCost(2048, 1024) < 0 {
		t.Errorf("gain and cost must be non-negative")
	}
	// The streaming app should never dominate the allocation at moderate
	// budgets: its curve is flat, so space goes to the others first.
	alloc := tab.AllocationsFor(3072)
	if alloc[2] > alloc[0] {
		t.Errorf("streaming app got more space (%d) than the sensitive app (%d)", alloc[2], alloc[0])
	}
}

func TestRepartTableEmptyAndDegenerate(t *testing.T) {
	tab := BuildRepartTable(nil, nil, nil, 100, 1024, 256)
	if got := tab.AllocationsFor(512); got != nil {
		t.Errorf("no batch apps should give nil allocations")
	}
	if tab.HitsAt(512) != 0 {
		t.Errorf("no batch apps should give zero hits")
	}
	// Degenerate bucket counts clamp.
	tab2 := BuildRepartTable([]int{0}, []monitor.MissCurve{monitor.FlatCurve(64, 65, 10, 10)}, []float64{1}, 64, 64, 0)
	if tab2.Buckets() < 1 {
		t.Errorf("bucket count should clamp to at least 1")
	}
	// Baseline budget beyond the total clamps.
	tab3 := BuildRepartTable([]int{0}, []monitor.MissCurve{monitor.FlatCurve(64, 65, 10, 10)}, []float64{1}, 10_000, 64, 4)
	if got := tab3.AllocationsFor(64); len(got) != 1 {
		t.Errorf("allocations should still be produced")
	}
}

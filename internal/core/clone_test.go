package core

import (
	"reflect"
	"testing"

	"repro/internal/monitor"
	"repro/internal/policy/policytest"
)

// TestUbikCloneMidBoost: checkpoint Ubik in its hardest state — repart table
// built, the LC app boosted with a live UMON snapshot and slack-controller
// state — and require the clone to make the identical de-boost decision,
// while mutations to the original stay invisible to the clone.
func TestUbikCloneMidBoost(t *testing.T) {
	v := ubikView()
	orig := NewUbikWithSlack(0.05)
	apply(v, orig.Reconfigure(v))
	// Enter the boost phase.
	apply(v, orig.OnActive(0, v))
	if !orig.Boosting(0) {
		t.Fatal("expected the LC app to be boosting after OnActive")
	}
	// Feed a few completions so the slack controller holds real state.
	for i := 0; i < 10; i++ {
		orig.OnRequestComplete(0, 350_000, v)
	}

	clone, ok := orig.Clone().(*Ubik)
	if !ok {
		t.Fatalf("Ubik.Clone returned %T", orig.Clone())
	}
	if !clone.Boosting(0) {
		t.Fatal("clone lost the boosting state")
	}
	if so, okO := orig.Sizing(0); true {
		sc, okC := clone.Sizing(0)
		if !okO || !okC || so != sc {
			t.Fatalf("clone sizing %v (ok=%v) != original %v (ok=%v)", sc, okC, so, okO)
		}
	}

	// Identical de-boost decision from identical observations: the UMON says
	// the app would have missed more at s_active than it actually did, so
	// both must de-boost now and emit the same resizes.
	v.Apps[0].Misses = 100
	v.Apps[0].MissesAtSince = func(_ monitor.UMONSnapshot, _ uint64) float64 { return 500 }
	origResizes := orig.OnLCCheck(0, v)
	cloneResizes := clone.OnLCCheck(0, v)
	if !reflect.DeepEqual(origResizes, cloneResizes) {
		t.Fatalf("clone's de-boost decision diverged:\norig  %v\nclone %v", origResizes, cloneResizes)
	}
	if orig.Boosting(0) || clone.Boosting(0) {
		t.Fatal("both copies should have de-boosted")
	}
}

// TestUbikCloneIsolation: after cloning, a reconfiguration of the original
// against a different machine state must not change what the clone computes.
func TestUbikCloneIsolation(t *testing.T) {
	v := ubikView()
	orig := NewUbikWithSlack(0.05)
	apply(v, orig.Reconfigure(v))
	clone := orig.Clone().(*Ubik)

	// Shift the original onto a very different epoch.
	v2 := ubikView()
	v2.Apps[3].Curve = policytest.LinearCurve(6144, 6144, 9000, 5, 9000)
	v2.Apps[0].IdleFraction = 0.0
	apply(v, orig.Reconfigure(v2))

	// The clone must still answer from the old epoch: compare against a
	// fresh policy driven only through the old epoch.
	ref := NewUbikWithSlack(0.05)
	vRef := ubikView()
	apply(vRef, ref.Reconfigure(vRef))
	got := clone.OnIdle(0, v)
	want := ref.OnIdle(0, vRef)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("original's reconfiguration leaked into the clone:\nclone %v\nref   %v", got, want)
	}
}

// TestRepartTableCloneDeep: the clone must not share budget rows or curves
// with the original.
func TestRepartTableCloneDeep(t *testing.T) {
	curves := []monitor.MissCurve{policytest.LinearCurve(4096, 2048, 900, 100, 2000)}
	tab := BuildRepartTable([]int{1}, curves, []float64{100}, 2048, 4096, 16)
	c := tab.Clone()
	if !reflect.DeepEqual(tab.AllocationsFor(1024), c.AllocationsFor(1024)) {
		t.Fatal("clone answers a different allocation")
	}
	// Scribble on the original's rows; the clone must be unaffected.
	before := c.AllocationsFor(2048)
	for b := 0; b <= tab.Buckets(); b++ {
		rows := tab.AllocationsFor(uint64(b) * tab.BucketLines())
		for i := range rows {
			rows[i] = 0 // AllocationsFor copies, so this must be harmless either way
		}
	}
	tab.curves[0].Misses[0] = -1
	if got := c.AllocationsFor(2048); !reflect.DeepEqual(got, before) {
		t.Errorf("mutating the original's internals changed the clone: %v != %v", got, before)
	}
	if c.curves[0].Misses[0] == -1 {
		t.Error("clone shares the original's curve storage")
	}
	var nilTab *RepartTable
	if nilTab.Clone() != nil {
		t.Error("cloning a nil table should stay nil")
	}
}

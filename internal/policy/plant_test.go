package policy

import (
	"testing"

	"repro/internal/monitor"
)

func plantFixture() *PlantView {
	return &PlantView{
		Apps: []AppObservation{
			{
				LatencyCritical:    true,
				Active:             false,
				Curve:              monitor.FlatCurve(1024, 4, 100, 1000),
				MissPenalty:        3,
				CyclesPerAccessHit: 2,
				CurrentTarget:      256,
				Occupancy:          200,
				LCTargetLines:      512,
				DeadlineCycles:     5000,
				IdleFraction:       0.5,
				Misses:             42,
				Snap:               monitor.UMONSnapshot{TotalAccesses: 7},
			},
			{
				Curve:       monitor.FlatCurve(1024, 4, 50, 500),
				MissPenalty: 1,
			},
		},
		Lines:       1024,
		EpochCycles: 10_000,
		Clock:       123_456,
	}
}

func TestPlantViewImplementsView(t *testing.T) {
	v := plantFixture()
	if v.NumApps() != 2 || v.TotalLines() != 1024 {
		t.Fatalf("NumApps/TotalLines = %d/%d", v.NumApps(), v.TotalLines())
	}
	if !v.IsLatencyCritical(0) || v.IsLatencyCritical(1) {
		t.Fatal("IsLatencyCritical wrong")
	}
	if v.MissPenalty(0) != 3 || v.CyclesPerAccessHit(0) != 2 {
		t.Fatal("penalty/cycles wrong")
	}
	if v.CurrentTarget(0) != 256 {
		t.Fatal("target wrong")
	}
	if v.LCTargetLines(0) != 512 || v.DeadlineCycles(0) != 5000 {
		t.Fatal("LC target/deadline wrong")
	}
	if v.IdleFraction(0) != 0.5 || v.PartitionMisses(0) != 42 {
		t.Fatal("idle/misses wrong")
	}
	if v.UMONSnapshot(0).TotalAccesses != 7 {
		t.Fatal("snapshot wrong")
	}
	if v.Now() != 123_456 {
		t.Fatal("clock wrong")
	}
	if got := v.MissCurve(1).At(0); got != 50 {
		t.Fatalf("MissCurve(1).At(0) = %v", got)
	}
}

func TestPlantViewActive(t *testing.T) {
	v := plantFixture()
	// LC app with Active=false is inactive; batch apps are always active.
	if v.Active(0) {
		t.Fatal("idle LC app reported active")
	}
	if !v.Active(1) {
		t.Fatal("batch app reported inactive")
	}
	v.Apps[0].Active = true
	if !v.Active(0) {
		t.Fatal("active LC app reported inactive")
	}
}

func TestPlantViewMissesAtSince(t *testing.T) {
	v := plantFixture()
	// Default: falls back to the curve.
	if got := v.UMONMissesAtSince(0, monitor.UMONSnapshot{}, 10); got != 100 {
		t.Fatalf("curve fallback = %v, want 100", got)
	}
	// Plant-provided estimator wins.
	var gotSince monitor.UMONSnapshot
	var gotLines uint64
	v.Apps[0].MissesAtSince = func(since monitor.UMONSnapshot, lines uint64) float64 {
		gotSince, gotLines = since, lines
		return 7.5
	}
	if got := v.UMONMissesAtSince(0, monitor.UMONSnapshot{TotalAccesses: 9}, 64); got != 7.5 {
		t.Fatalf("estimator = %v, want 7.5", got)
	}
	if gotSince.TotalAccesses != 9 || gotLines != 64 {
		t.Fatalf("estimator args = %+v, %d", gotSince, gotLines)
	}
}

func TestApplyResizes(t *testing.T) {
	targets := []uint64{10, 20, 30}
	out := ApplyResizes(targets, []Resize{
		{App: 0, Target: 100},
		{App: 2, Target: 300},
		{App: -1, Target: 999}, // out of range: ignored
		{App: 3, Target: 999},  // out of range: ignored
	})
	if &out[0] != &targets[0] {
		t.Fatal("ApplyResizes did not mutate in place")
	}
	want := []uint64{100, 20, 300}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("targets = %v, want %v", out, want)
		}
	}
}

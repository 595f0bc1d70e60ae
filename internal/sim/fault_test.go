package sim

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/workload"
)

// slowGoldenRun is goldenRun with a slow-window plan attached to the LC slot;
// tests compare its 200k-cycle latency windows.
func slowGoldenRun(t *testing.T, windows []SlowWindow) Result {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Seed = 42
	lc, err := workload.LCByName("masstree")
	if err != nil {
		t.Fatal(err)
	}
	batch, err := workload.BatchByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	specs := []AppSpec{
		{LC: &lc, Load: 0.2, MeanInterarrival: 60_000, DeadlineCycles: 45_000, RequestFactor: 0.05, SlowWindows: windows},
		{Batch: &batch, ROIInstructions: 300_000},
	}
	return runChecked(t, cfg, specs, core.NewUbikWithSlack(0.05))
}

// TestSlowWindowValidation enumerates the malformed slow-window plans
// AppSpec.Validate must reject.
func TestSlowWindowValidation(t *testing.T) {
	lc, err := workload.LCByName("masstree")
	if err != nil {
		t.Fatal(err)
	}
	batch, err := workload.BatchByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	lcSpec := func(w ...SlowWindow) AppSpec {
		return AppSpec{LC: &lc, Load: 0.2, MeanInterarrival: 60_000, SlowWindows: w}
	}
	cases := []struct {
		name string
		spec AppSpec
		want string
	}{
		{"empty window", lcSpec(SlowWindow{StartCycle: 10, EndCycle: 10, Factor: 2}), "end"},
		{"inverted window", lcSpec(SlowWindow{StartCycle: 20, EndCycle: 10, Factor: 2}), "end"},
		{"factor below one", lcSpec(SlowWindow{StartCycle: 0, EndCycle: 10, Factor: 0.5}), "factor"},
		{"overlapping windows", lcSpec(
			SlowWindow{StartCycle: 0, EndCycle: 100, Factor: 2},
			SlowWindow{StartCycle: 50, EndCycle: 150, Factor: 3},
		), "overlap"},
		{"unsorted windows", lcSpec(
			SlowWindow{StartCycle: 100, EndCycle: 200, Factor: 2},
			SlowWindow{StartCycle: 0, EndCycle: 50, Factor: 2},
		), "overlap"},
		{"batch slot cannot fail slow", AppSpec{
			Batch:       &batch,
			SlowWindows: []SlowWindow{{StartCycle: 0, EndCycle: 10, Factor: 2}},
		}, "no requests"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			err := c.spec.Validate()
			if err == nil {
				t.Fatalf("Validate accepted %+v", c.spec.SlowWindows)
			}
			if !strings.Contains(strings.ToLower(err.Error()), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

// TestSlowWindowConfinement pins the fail-slow contract at the simulator
// layer: an empty plan is a bit-identical no-op, the inflation consumes no
// extra randomness (windows before the fault match the healthy run exactly),
// and in-window service demands actually inflate.
func TestSlowWindowConfinement(t *testing.T) {
	if testing.Short() {
		t.Skip("sim runs are slow")
	}
	healthy := slowGoldenRun(t, nil)
	noop := slowGoldenRun(t, []SlowWindow{})
	if windowedDigest(healthy, 200_000) != windowedDigest(noop, 200_000) {
		t.Error("an empty slow-window slice must be a bit-identical no-op")
	}

	const faultStart = 600_000
	slow := slowGoldenRun(t, []SlowWindow{{StartCycle: faultStart, EndCycle: 1 << 60, Factor: 4}})
	hw := stats.WindowStats(200_000, 95, healthy.LCResults()[0].Record())
	sw := stats.WindowStats(200_000, 95, slow.LCResults()[0].Record())
	checked := 0
	for i := range hw {
		if hw[i].EndCycle > faultStart || i >= len(sw) {
			break
		}
		if hw[i] != sw[i] {
			t.Errorf("pre-fault window %d differs: healthy %+v, slow %+v", i, hw[i], sw[i])
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no pre-fault windows to compare; lower the fault start")
	}
	if slow.LCResults()[0].MeanServiceTime <= healthy.LCResults()[0].MeanServiceTime {
		t.Errorf("inflated run's mean service time %f should exceed healthy %f",
			slow.LCResults()[0].MeanServiceTime, healthy.LCResults()[0].MeanServiceTime)
	}

	// A window opening one cycle after a request's raw arrival covers its
	// coalesced (visible) arrival but not the raw one, which is what the
	// window is matched against: that request keeps its drawn demand
	// (runChecked re-draws it), so its latency is the healthy run's.
	rec := healthy.LCResults()[0]
	k := len(rec.RequestArrivals) / 2
	a := rec.RequestArrivals[k]
	edge := slowGoldenRun(t, []SlowWindow{{StartCycle: a + 1, EndCycle: a + 1 + 400_000, Factor: 4}}).LCResults()[0]
	if edge.RequestArrivals[k] != a || edge.RequestLatencies[k] != rec.RequestLatencies[k] {
		t.Errorf("request %d arriving at %d, one cycle before the window: latency %v, want the healthy %v",
			k, a, edge.RequestLatencies[k], rec.RequestLatencies[k])
	}
	if edge.MeanServiceTime <= rec.MeanServiceTime {
		t.Errorf("the window after request %d inflates nothing: mean service time %f, healthy %f", k, edge.MeanServiceTime, rec.MeanServiceTime)
	}
}

// TestColdRestart pins the restart contract: a mid-run cold restart is
// deterministic (two identical restarted runs match bit for bit), differs
// from the uninterrupted run (the warm state really is gone), and rejects a
// nil replacement policy.
func TestColdRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("sim runs are slow")
	}
	cfg := DefaultConfig()
	cfg.Seed = 42
	lc, err := workload.LCByName("masstree")
	if err != nil {
		t.Fatal(err)
	}
	batch, err := workload.BatchByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	specs := []AppSpec{
		{LC: &lc, Load: 0.2, MeanInterarrival: 60_000, DeadlineCycles: 45_000, RequestFactor: 0.05},
		{Batch: &batch, ROIInstructions: 300_000},
	}
	restarted := func() Result {
		s, err := New(cfg, specs, core.NewUbikWithSlack(0.05))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.RunUntil(620_000); err != nil {
			t.Fatal(err)
		}
		a := s.apps[0]
		if !a.inService {
			t.Fatal("no request in flight at the restart; move the pause point")
		}
		inFlight := a.served - 1
		start, restartClock := a.reqs[inFlight].Start, a.clock
		if err := s.ColdRestart(nil); err == nil {
			t.Fatal("ColdRestart must reject a nil policy")
		}
		if err := s.ColdRestart(core.NewUbikWithSlack(0.05)); err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		checkServer(t, s)
		if r := a.reqs[inFlight]; r.Start != start || r.Completion <= restartClock {
			t.Errorf("the request in flight at the restart ran [%d, %d), want it kept from start %d to completion past the restart at %d",
				r.Start, r.Completion, start, restartClock)
		}
		return res
	}
	a, b := restarted(), restarted()
	if resultDigest(a) != resultDigest(b) {
		t.Error("identical restarted runs must match bit for bit")
	}
	plain, err := RunMix(cfg, specs, core.NewUbikWithSlack(0.05))
	if err != nil {
		t.Fatal(err)
	}
	if resultDigest(a) == resultDigest(plain) {
		t.Error("a mid-run cold restart should change the result (warm state dumped)")
	}
}

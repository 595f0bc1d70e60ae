package cluster

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// faultTestSpec is a small 3-node round-robin cluster for fault-plan tests:
// fan-out 1 so every query's latency is one node's leaf latency, and no
// schedule, so fault effects are the only transient.
func faultTestSpec(t *testing.T, faults []Fault) Spec {
	t.Helper()
	lc, err := workload.LCByName("xapian")
	if err != nil {
		t.Fatal(err)
	}
	batch, err := workload.BatchByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	node := func(i int) NodeSpec {
		cfg := sim.DefaultConfig()
		cfg.Seed = workload.SplitSeed(7, uint64(i))
		return NodeSpec{
			Config:    cfg,
			LC:        sim.AppSpec{LC: &lc, Load: 0.2, MeanInterarrival: 50_000, DeadlineCycles: 40_000},
			Batch:     []sim.AppSpec{{Batch: &batch, ROIInstructions: 120_000}},
			NewPolicy: func() policy.Policy { return core.NewUbikWithSlack(0.05) },
		}
	}
	return Spec{
		Nodes:                 []NodeSpec{node(0), node(1), node(2)},
		Fanout:                1,
		Balancer:              BalanceRoundRobin,
		Queries:               60,
		WarmupQueries:         6,
		QueryMeanInterarrival: 50_000 / 3.0,
		Seed:                  7,
		Faults:                faults,
	}
}

// TestFaultValidation enumerates the malformed fault plans Validate must
// reject, with actionable messages.
func TestFaultValidation(t *testing.T) {
	cases := []struct {
		name   string
		faults []Fault
		want   string
	}{
		{"node out of range", []Fault{{Kind: FaultNodeDown, Node: 7, AtCycle: 1, DurationCycles: 10}}, "targets node 7"},
		{"negative node", []Fault{{Kind: FaultNodeDown, Node: -1, AtCycle: 1, DurationCycles: 10}}, "targets node -1"},
		{"unknown kind", []Fault{{Kind: "meteor", Node: 0, AtCycle: 1}}, "unknown kind"},
		{"node-down needs duration", []Fault{{Kind: FaultNodeDown, Node: 0, AtCycle: 1}}, "duration"},
		{"node-down rejects factor", []Fault{{Kind: FaultNodeDown, Node: 0, AtCycle: 1, DurationCycles: 10, Factor: 2}}, "factor"},
		{"fail-slow needs duration", []Fault{{Kind: FaultFailSlow, Node: 0, AtCycle: 1, Factor: 2}}, "duration"},
		{"fail-slow needs factor >= 1", []Fault{{Kind: FaultFailSlow, Node: 0, AtCycle: 1, DurationCycles: 10, Factor: 0.5}}, "factor"},
		{"restart needs a cycle", []Fault{{Kind: FaultRestart, Node: 0}}, "restart cycle"},
		{"restart is instantaneous", []Fault{{Kind: FaultRestart, Node: 0, AtCycle: 5, DurationCycles: 10}}, "instantaneous"},
		{"duplicate restart cycle", []Fault{
			{Kind: FaultRestart, Node: 0, AtCycle: 5},
			{Kind: FaultRestart, Node: 0, AtCycle: 5},
		}, "duplicate restart at cycle 5"},
		{"overlapping fail-slow windows", []Fault{
			{Kind: FaultFailSlow, Node: 0, AtCycle: 10, DurationCycles: 100, Factor: 2},
			{Kind: FaultFailSlow, Node: 0, AtCycle: 50, DurationCycles: 100, Factor: 3},
		}, "overlapping fail-slow windows"},
		{"all nodes down strands queries", []Fault{
			{Kind: FaultNodeDown, Node: 0, AtCycle: 100, DurationCycles: 1000},
			{Kind: FaultNodeDown, Node: 1, AtCycle: 100, DurationCycles: 1000},
			{Kind: FaultNodeDown, Node: 2, AtCycle: 100, DurationCycles: 1000},
		}, "leaves only 0 healthy nodes"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			spec := faultTestSpec(t, c.faults)
			err := spec.Validate()
			if err == nil {
				t.Fatalf("Validate accepted %v", c.faults)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

// TestNodeDownLeavesRotation checks the fail-stop semantics: a node that is
// down for the whole run serves zero leaves, the survivors absorb its share,
// and the balancer stays deterministic about it at any parallelism.
func TestNodeDownLeavesRotation(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster runs are slow")
	}
	faults := []Fault{{Kind: FaultNodeDown, Node: 1, AtCycle: 0, DurationCycles: 1 << 60}}
	var reference Result
	for i, workers := range []int{1, 4} {
		res, err := Run(faultTestSpec(t, faults), workers)
		if err != nil {
			t.Fatal(err)
		}
		if res.Nodes[1].Leaves != 0 {
			t.Errorf("down node served %d leaves, want 0", res.Nodes[1].Leaves)
		}
		if res.Nodes[0].Leaves == 0 || res.Nodes[2].Leaves == 0 {
			t.Errorf("surviving nodes should absorb the load, got %d and %d leaves",
				res.Nodes[0].Leaves, res.Nodes[2].Leaves)
		}
		if res.Queries != 60 {
			t.Errorf("aggregated %d queries, want 60", res.Queries)
		}
		if i == 0 {
			reference = res
			continue
		}
		if !reflect.DeepEqual(reference, res) {
			t.Errorf("node-down result differs between parallelism 1 and %d", workers)
		}
	}
}

// TestFailSlowConfinedToWindow checks the fail-slow semantics: windows that
// end before the fault starts are bit-identical to the healthy run (the
// inflation consumes no extra randomness), and the faulted run's overall tail
// is no better than the healthy one.
func TestFailSlowConfinedToWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster runs are slow")
	}
	const faultStart = 600_000
	healthy, err := Run(faultTestSpec(t, nil), 2)
	if err != nil {
		t.Fatal(err)
	}
	faults := []Fault{{Kind: FaultFailSlow, Node: 0, AtCycle: faultStart, DurationCycles: 1 << 60, Factor: 4}}
	slow, err := Run(faultTestSpec(t, faults), 2)
	if err != nil {
		t.Fatal(err)
	}
	hw := stats.WindowStats(500_000, 95, healthy.Record())
	sw := stats.WindowStats(500_000, 95, slow.Record())
	checked := 0
	for i := range hw {
		if hw[i].EndCycle > faultStart || i >= len(sw) {
			break
		}
		if hw[i] != sw[i] {
			t.Errorf("pre-fault window %d differs: healthy %+v, fail-slow %+v", i, hw[i], sw[i])
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no pre-fault windows to compare; lower the fault start")
	}
	if slow.P95 < healthy.P95 {
		t.Errorf("fail-slow run has better p95 (%f) than healthy (%f)", slow.P95, healthy.P95)
	}
	if slow.Nodes[0].LeafMean <= healthy.Nodes[0].LeafMean {
		t.Errorf("faulted node's mean leaf latency %f should exceed healthy %f",
			slow.Nodes[0].LeafMean, healthy.Nodes[0].LeafMean)
	}
}

// TestRestartDeterministicAndVisible checks the rolling-restart semantics: a
// mid-run cold restart changes the node's results (the warm state is gone),
// deterministically at any parallelism.
func TestRestartDeterministicAndVisible(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster runs are slow")
	}
	baseline, err := Run(faultTestSpec(t, nil), 2)
	if err != nil {
		t.Fatal(err)
	}
	faults := []Fault{{Kind: FaultRestart, Node: 0, AtCycle: 600_000}}
	var reference Result
	for i, workers := range []int{1, 4} {
		res, err := Run(faultTestSpec(t, faults), workers)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			reference = res
			continue
		}
		if !reflect.DeepEqual(reference, res) {
			t.Errorf("restart result differs between parallelism 1 and %d", workers)
		}
	}
	if reflect.DeepEqual(baseline.Nodes[0].Sim, reference.Nodes[0].Sim) {
		t.Error("restarting node 0 mid-run should change its simulation result")
	}
	if !reflect.DeepEqual(baseline.Nodes[2].Sim, reference.Nodes[2].Sim) {
		t.Error("restarting node 0 must not perturb node 2's independent simulation")
	}
}

// TestWarmPoolKeysSeparateFaultPlans checks that pooled runs with different
// fault plans never share memoized node results: the same spec with and
// without a restart must differ even when run through one warm pool.
func TestWarmPoolKeysSeparateFaultPlans(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster runs are slow")
	}
	faults := []Fault{{Kind: FaultRestart, Node: 0, AtCycle: 600_000}}
	both, err := RunAll([]Spec{faultTestSpec(t, nil), faultTestSpec(t, faults)}, []string{"scheme", "scheme"}, 2, sim.NewWarmPool())
	if err != nil {
		t.Fatal(err)
	}
	plain, restarted := both[0], both[1]
	if reflect.DeepEqual(plain.Nodes[0].Sim, restarted.Nodes[0].Sim) {
		t.Error("warm pool served the healthy node result for the restarted plan (key collision)")
	}
	// And pooled must agree with unpooled for the faulted plan.
	direct, err := Run(faultTestSpec(t, faults), 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct, restarted) {
		t.Error("pooled faulted run differs from the direct run")
	}
}

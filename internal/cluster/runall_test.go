package cluster

import (
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/policy"
	"repro/internal/sim"
)

// runAllSpecs is a heterogeneous list: a hedged fan-out-2 cluster with a
// straggler, a fan-out-1 cluster with a fail-slow window, a node-down window
// and a rolling restart, and the same fan-out-1 cluster all healthy.
func runAllSpecs(t *testing.T) ([]Spec, []string) {
	t.Helper()
	faults := []Fault{
		{Kind: FaultFailSlow, Node: 1, AtCycle: 300_000, DurationCycles: 400_000, Factor: 3},
		{Kind: FaultNodeDown, Node: 2, AtCycle: 500_000, DurationCycles: 300_000},
		{Kind: FaultRestart, Node: 0, AtCycle: 600_000},
	}
	return []Spec{testClusterSpec(t, BalanceP2C), faultTestSpec(t, faults), faultTestSpec(t, nil)},
		[]string{"mixed", "faulted", "healthy"}
}

// TestRunAllMatchesRunPerSpec pins the multi-cluster entry to the one-cluster
// one: a list through RunAll equals Run on each spec alone, at any workers
// value, with or without a warm pool, and result i belongs to spec i whatever
// the list order.
func TestRunAllMatchesRunPerSpec(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster runs are slow")
	}
	specs, keys := runAllSpecs(t)
	want := make([]Result, len(specs))
	for i, spec := range specs {
		var err error
		if want[i], err = Run(spec, 1); err != nil {
			t.Fatalf("spec %s alone: %v", keys[i], err)
		}
	}
	if reflect.DeepEqual(want[1], want[2]) {
		t.Fatal("the faulted and the healthy cluster must differ for the comparison to mean anything")
	}
	for _, workers := range []int{1, 4} {
		for _, pool := range []*sim.WarmPool{nil, sim.NewWarmPool()} {
			got, err := RunAll(specs, keys, workers, pool)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("workers=%d pooled=%v: RunAll differs from Run on each spec alone", workers, pool != nil)
			}
		}
	}
	order := []int{2, 0, 1}
	shuffled, shuffledKeys := make([]Spec, len(order)), make([]string, len(order))
	for i, j := range order {
		shuffled[i], shuffledKeys[i] = specs[j], keys[j]
	}
	got, err := RunAll(shuffled, shuffledKeys, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range order {
		if !reflect.DeepEqual(got[i], want[j]) {
			t.Errorf("shuffled list: result %d does not belong to spec %s", i, keys[j])
		}
	}
}

// TestRunAllErrorsNameSpecAndNode checks error attribution through the flat
// list: a starved node fails with its cluster's key and its node index, the
// same message at any workers value.
func TestRunAllErrorsNameSpecAndNode(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster runs are slow")
	}
	starved := goldenClusterSpec(t, sim.DefaultConfig())
	starved.Nodes = append(starved.Nodes, starved.Nodes[0])
	starved.Queries = 1
	starved.WarmupQueries = 0
	specs := []Spec{goldenClusterSpec(t, sim.DefaultConfig()), starved}
	var first string
	for _, workers := range []int{1, 4} {
		_, err := RunAll(specs, []string{"fine", "starved"}, workers, nil)
		if err == nil {
			t.Fatalf("workers=%d: expected a no-measured-leaves error", workers)
		}
		msg := err.Error()
		for _, part := range []string{"starved: ", "node 1 ", "no measured leaves"} {
			if !strings.Contains(msg, part) {
				t.Errorf("workers=%d: error %q does not contain %q", workers, msg, part)
			}
		}
		if first == "" {
			first = msg
		} else if msg != first {
			t.Errorf("error differs across workers: %q vs %q", first, msg)
		}
	}
}

// TestRunAllValidatesEverySpecFirst checks that a bad spec anywhere in the
// list fails the call before any node of any cluster is simulated.
func TestRunAllValidatesEverySpecFirst(t *testing.T) {
	var built atomic.Int64
	counted := func(spec Spec) Spec {
		nodes := append([]NodeSpec(nil), spec.Nodes...)
		for i := range nodes {
			inner := nodes[i].NewPolicy
			nodes[i].NewPolicy = func() policy.Policy { built.Add(1); return inner() }
		}
		spec.Nodes = nodes
		return spec
	}
	bad := counted(faultTestSpec(t, nil))
	bad.Fanout = len(bad.Nodes) + 1
	specs := []Spec{counted(faultTestSpec(t, nil)), counted(testClusterSpec(t, BalanceRoundRobin)), bad}
	_, err := RunAll(specs, []string{"a", "b", "bad"}, 4, nil)
	if err == nil || !strings.Contains(err.Error(), "bad: cluster: fan-out") {
		t.Fatalf("expected the last spec's validation error under its key, got %v", err)
	}
	if n := built.Load(); n != 0 {
		t.Errorf("%d policies were constructed before validation failed, want 0", n)
	}
	if _, err := RunAll(specs[:2], []string{"a"}, 1, nil); err == nil {
		t.Error("a key list shorter than the spec list must be rejected")
	}
}

package cluster

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// resultDigest folds every numeric field of a sim.Result into one FNV-1a
// hash — the same digest internal/sim's golden tests pin, so the cluster
// identity tests below can assert against the very same constants.
func resultDigest(res sim.Result) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime64
		}
	}
	mixF := func(v float64) { mix(math.Float64bits(v)) }
	mix(res.Cycles)
	mix(res.Reconfigurations)
	mixF(res.ForcedEvictionFraction)
	mix(uint64(len(res.Apps)))
	for _, a := range res.Apps {
		mix(a.Instructions)
		mix(a.Requests)
		mixF(a.IPC)
		mixF(a.MissRate)
		mixF(a.APKI)
		mixF(a.MeanLatency)
		mixF(a.TailLatency)
		mixF(a.MeanServiceTime)
		mixF(a.MeanPartitionTarget)
		for _, frac := range a.ReuseBreakdown {
			mixF(frac)
		}
	}
	return h
}

// goldenClusterSpec rebuilds internal/sim's golden run — masstree at a fixed
// 60k-cycle interarrival plus mcf under Ubik, seed 42 — as a one-node
// cluster: fan-out 1, full quorum, no hedging, with the front-end seeded
// with the node slot's effective arrival seed.
func goldenClusterSpec(t *testing.T, cfg sim.Config) Spec {
	t.Helper()
	cfg.Seed = 42
	lc, err := workload.LCByName("masstree")
	if err != nil {
		t.Fatal(err)
	}
	batch, err := workload.BatchByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	const factor = 0.05
	requests := int(float64(lc.Requests) * factor)
	if requests < 1 {
		requests = 1
	}
	warmup := int(float64(lc.WarmupRequests) * factor)
	return Spec{
		Nodes: []NodeSpec{{
			Config:    cfg,
			LC:        sim.AppSpec{LC: &lc, Load: 0.2, MeanInterarrival: 60_000, DeadlineCycles: 45_000, RequestFactor: factor},
			Batch:     []sim.AppSpec{{Batch: &batch, ROIInstructions: 300_000}},
			NewPolicy: func() policy.Policy { return core.NewUbikWithSlack(0.05) },
		}},
		Fanout:                1,
		Balancer:              BalanceRoundRobin,
		Queries:               requests,
		WarmupQueries:         warmup,
		QueryMeanInterarrival: 60_000,
		Seed:                  42,
		// The golden run's LC slot sits at index 0 with spec seed 0, so its
		// effective seed is SplitSeed(42, 0+101); seeding the front-end with
		// it makes the global query stream identical to the stream the slot
		// would draw for itself.
		ArrivalSeed: workload.SplitSeed(42, 101),
	}
}

// TestSingleNodeIdentity pins the cluster layer's degenerate case: a one-node
// fan-out-1 cluster with no hedging must reproduce the plain single-node
// simulation bit for bit, on both the flat and the hierarchy configuration —
// asserted against the same golden constants internal/sim pins.
func TestSingleNodeIdentity(t *testing.T) {
	cases := []struct {
		name string
		cfg  sim.Config
		want uint64
	}{
		{"hierarchy", sim.DefaultConfig(), 0xdb4d74909e94b33f},
		{"flat", func() sim.Config { c := sim.DefaultConfig(); c.Hierarchy = cache.HierarchyConfig{}; return c }(), 0x576fdec701773e44},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			spec := goldenClusterSpec(t, c.cfg)
			res, err := Run(spec, 1)
			if err != nil {
				t.Fatal(err)
			}
			if got := resultDigest(res.Nodes[0].Sim); got != c.want {
				t.Errorf("one-node cluster digest = %#x, want golden %#x (the cluster layer perturbed single-node numerics)", got, c.want)
			}
			// With fan-out 1 and quorum 1, query latencies are exactly the
			// node's measured leaf latencies.
			lc := res.Nodes[0].Sim.LCResults()[0]
			if res.Queries != lc.Requests {
				t.Fatalf("aggregated %d queries, node served %d measured requests", res.Queries, lc.Requests)
			}
			if res.Mean != lc.MeanLatency {
				t.Errorf("query mean %v != node mean latency %v", res.Mean, lc.MeanLatency)
			}
		})
	}
}

// testClusterSpec is a small heterogeneous 3-node cluster exercising
// fan-out, quorum, hedging, a global burst schedule and a
// straggler node with a smaller LLC — the full surface, sized for unit tests.
func testClusterSpec(t *testing.T, balancer BalancerKind) Spec {
	t.Helper()
	lc, err := workload.LCByName("xapian")
	if err != nil {
		t.Fatal(err)
	}
	batch, err := workload.BatchByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	sched, err := workload.ParseSchedule("burst:at=2e6,dur=2e6,x=3")
	if err != nil {
		t.Fatal(err)
	}
	node := func(i int, llcLines uint64, pol func() policy.Policy) NodeSpec {
		cfg := sim.DefaultConfig()
		cfg.Seed = workload.SplitSeed(9, uint64(i))
		if llcLines > 0 {
			cfg.LLC = cache.DefaultZ452(llcLines, 3)
		}
		return NodeSpec{
			Config:    cfg,
			LC:        sim.AppSpec{LC: &lc, Load: 0.2, MeanInterarrival: 50_000, DeadlineCycles: 40_000},
			Batch:     []sim.AppSpec{{Batch: &batch, ROIInstructions: 120_000}},
			NewPolicy: pol,
		}
	}
	return Spec{
		Nodes: []NodeSpec{
			node(0, 0, func() policy.Policy { return core.NewUbikWithSlack(0.05) }),
			node(1, 0, func() policy.Policy { return core.NewUbikWithSlack(0.05) }),
			node(2, 3*sim.LinesFor2MB, func() policy.Policy { return policy.NewStaticLC() }), // straggler
		},
		Fanout:                2,
		Quorum:                2,
		Balancer:              balancer,
		Queries:               60,
		WarmupQueries:         6,
		QueryMeanInterarrival: 50_000 * 2 / 3.0,
		Sched:                 sched,
		HedgeDelayCycles:      30_000,
		Seed:                  9,
	}
}

// TestClusterDeterministicUnderParallelism locks the cluster determinism
// contract: the same spec produces byte-identical results whether the node
// simulations run inline or over a worker pool.
func TestClusterDeterministicUnderParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster runs are slow")
	}
	for _, balancer := range []BalancerKind{BalanceRoundRobin, BalanceP2C} {
		balancer := balancer
		t.Run(string(balancer), func(t *testing.T) {
			t.Parallel()
			var reference Result
			for i, workers := range []int{1, 4} {
				res, err := Run(testClusterSpec(t, balancer), workers)
				if err != nil {
					t.Fatal(err)
				}
				if res.Queries != 60 {
					t.Fatalf("aggregated %d queries, want 60", res.Queries)
				}
				if len(res.QueryArrivals) != 60 || len(res.PerQueryLatencies) != 60 {
					t.Fatalf("query record holds %d arrivals and %d latencies, want 60 each", len(res.QueryArrivals), len(res.PerQueryLatencies))
				}
				if i == 0 {
					reference = res
					continue
				}
				if !reflect.DeepEqual(reference, res) {
					t.Errorf("cluster result differs between parallelism 1 and %d", workers)
				}
			}
		})
	}
}

// TestHedgingHelpsTail checks the hedge semantics end to end: with a spare
// node and eager hedges, the hedged run's query tail is never worse than the
// quorum alone would explain, and hedge wins are counted.
func TestHedgingCountsWins(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster runs are slow")
	}
	spec := testClusterSpec(t, BalanceRoundRobin)
	res, err := Run(spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.HedgeWins == 0 {
		t.Errorf("expected at least one hedge win over %d queries (straggler node in rotation)", res.Queries)
	}
	if res.HedgeWins > res.Queries {
		t.Errorf("hedge wins %d exceed query count %d", res.HedgeWins, res.Queries)
	}
}

// fakeNodeResult builds a sim.Result whose single LC slot reports the given
// per-request latencies the way a finished run does: the record the
// aggregator joins on, and the sorted sample it reads per-node stats from.
func fakeNodeResult(latencies ...float64) sim.Result {
	sample := stats.NewSample(len(latencies))
	sample.AddAll(latencies)
	sample.Sort()
	return sim.Result{Apps: []sim.AppResult{{LatencyCritical: true, RequestLatencies: latencies, Latencies: sample}}}
}

// fakeSpec builds a validated-shaped spec for direct aggregate tests (nodes
// carry no configs; aggregate never touches them).
func fakeSpec(nodes, fanout, quorum, queries int, hedgeDelay uint64) Spec {
	return Spec{
		Nodes:                 make([]NodeSpec, nodes),
		Fanout:                fanout,
		Quorum:                quorum,
		Queries:               queries,
		QueryMeanInterarrival: 1000,
		HedgeDelayCycles:      hedgeDelay,
	}
}

// TestAggregateQuorumSemantics drives the join directly: fan-out 2 over two
// nodes, full quorum takes the max of each query's leaves, quorum 1 the min.
func TestAggregateQuorumSemantics(t *testing.T) {
	plan := &queryPlan{
		arrivals: []uint64{100, 200},
		primaries: [][]leafRef{
			{{node: 0, index: 0}, {node: 1, index: 0}},
			{{node: 0, index: 1}, {node: 1, index: 1}},
		},
		hedges:     []leafRef{{node: -1}, {node: -1}},
		nodeTimes:  [][]uint64{{100, 200}, {100, 200}},
		nodeWarmup: []int{0, 0},
	}
	results := []sim.Result{fakeNodeResult(10, 40), fakeNodeResult(30, 20)}

	res, err := aggregate(fakeSpec(2, 2, 2, 2, 0), plan, results)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.PerQueryLatencies; got[0] != 30 || got[1] != 40 {
		t.Errorf("full quorum should take per-query maxes, got %v want [30 40]", got)
	}
	if res.Nodes[0].Leaves != 2 || res.Nodes[1].LeafMean != 25 {
		t.Errorf("per-node breakdown wrong: %+v", res.Nodes)
	}

	res, err = aggregate(fakeSpec(2, 2, 1, 2, 0), plan, results)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.PerQueryLatencies; got[0] != 10 || got[1] != 20 {
		t.Errorf("quorum 1 should take per-query mins, got %v want [10 20]", got)
	}
}

// TestAggregateHedgeJoin checks the hedge candidate math: the hedged
// response competes offset by the hedge delay, displacing the straggling
// primary only when it is actually faster.
func TestAggregateHedgeJoin(t *testing.T) {
	plan := &queryPlan{
		arrivals: []uint64{100, 5000},
		primaries: [][]leafRef{
			{{node: 0, index: 0}, {node: 1, index: 0}},
			{{node: 0, index: 1}, {node: 1, index: 1}},
		},
		// Query 0's hedge lands on node 2 and is fast; query 1's hedge is too
		// slow to beat its primaries.
		hedges:     []leafRef{{node: 2, index: 0}, {node: 2, index: 1}},
		nodeTimes:  [][]uint64{{100, 5000}, {100, 5000}, {150, 5050}},
		nodeWarmup: []int{0, 0, 0},
	}
	results := []sim.Result{
		fakeNodeResult(10, 40),
		fakeNodeResult(900, 20),
		fakeNodeResult(30, 500),
	}
	res, err := aggregate(fakeSpec(3, 2, 2, 2, 50), plan, results)
	if err != nil {
		t.Fatal(err)
	}
	// Query 0: primaries {10, 900}, hedge 50+30=80 -> quorum-2 latency 80.
	// Query 1: primaries {40, 20}, hedge 50+500=550 -> stays 40.
	if got := res.PerQueryLatencies; got[0] != 80 || got[1] != 40 {
		t.Errorf("hedged join = %v, want [80 40]", got)
	}
	if res.HedgeWins != 1 {
		t.Errorf("hedge wins = %d, want 1", res.HedgeWins)
	}
}

func TestKthSmallest(t *testing.T) {
	vals := []float64{5, 1, 4, 2}
	if got := kthSmallest(append([]float64(nil), vals...), 1); got != 1 {
		t.Errorf("1st smallest = %v", got)
	}
	if got := kthSmallest(append([]float64(nil), vals...), 3); got != 4 {
		t.Errorf("3rd smallest = %v", got)
	}
	if got := kthSmallest(append([]float64(nil), vals...), 9); got != 5 {
		t.Errorf("overlong quorum should clamp to the max, got %v", got)
	}
}

// TestSpecValidation enumerates the contradictory configurations Validate
// must reject with a clear message.
func TestSpecValidation(t *testing.T) {
	base := func() Spec { return goldenClusterSpec(t, sim.DefaultConfig()) }
	cases := []struct {
		name    string
		mutate  func(*Spec)
		wantErr string
	}{
		{"valid", func(s *Spec) {}, ""},
		{"no nodes", func(s *Spec) { s.Nodes = nil }, "at least one node"},
		{"fanout zero", func(s *Spec) { s.Fanout = 0 }, "fan-out must be at least 1"},
		{"fanout exceeds nodes", func(s *Spec) { s.Fanout = 2 }, "exceeds the cluster size"},
		{"quorum exceeds fanout", func(s *Spec) { s.Quorum = 2 }, "quorum 2 must be in"},
		{"hedge with fanout 1", func(s *Spec) { s.HedgeDelayCycles = 10 }, "fan-out-1"},
		{"no queries", func(s *Spec) { s.Queries = 0 }, "at least one measured query"},
		{"negative warmup", func(s *Spec) { s.WarmupQueries = -1 }, "negative warmup"},
		{"bad interarrival", func(s *Spec) { s.QueryMeanInterarrival = 0 }, "interarrival must be positive"},
		{"bad balancer", func(s *Spec) { s.Balancer = "magic" }, "unknown balancer"},
		{"no policy", func(s *Spec) { s.Nodes[0].NewPolicy = nil }, "policy constructor"},
		{"batch slot is LC", func(s *Spec) { s.Nodes[0].Batch = append(s.Nodes[0].Batch, s.Nodes[0].LC) }, "batch slot"},
		{"bad percentile", func(s *Spec) { s.TailPercentile = 100 }, "tail percentile"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			spec := base()
			c.mutate(&spec)
			err := spec.Validate()
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("expected error containing %q, got nil", c.wantErr)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error %q does not contain %q", err, c.wantErr)
			}
		})
	}
	// Hedging with all nodes in the fan-out has no spare node.
	spec := testClusterSpec(t, BalanceRoundRobin)
	spec.Fanout, spec.Quorum = 3, 3
	if err := spec.Validate(); err == nil || !strings.Contains(err.Error(), "spare node") {
		t.Errorf("hedging with fanout == nodes should need a spare node, got %v", err)
	}
}

// TestNodeWithoutLeavesFails pins the helpful error for a cluster so small a
// node never serves a measured leaf.
func TestNodeWithoutLeavesFails(t *testing.T) {
	spec := goldenClusterSpec(t, sim.DefaultConfig())
	spec.Nodes = append(spec.Nodes, spec.Nodes[0])
	spec.Queries = 1
	spec.WarmupQueries = 0
	if _, err := Run(spec, 1); err == nil || !strings.Contains(err.Error(), "no measured leaves") {
		t.Fatalf("expected a no-measured-leaves error, got %v", err)
	}
}

package cluster

import (
	"testing"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/workload"
)

// benchSpec is the bench-scale cluster: 4 Ubik nodes, fan-out 2 with
// hedging, p2c balancing.
func benchSpec(b *testing.B) Spec {
	b.Helper()
	lc, err := workload.LCByName("specjbb")
	if err != nil {
		b.Fatal(err)
	}
	batch, err := workload.BatchByName("mcf")
	if err != nil {
		b.Fatal(err)
	}
	nodes := make([]NodeSpec, 4)
	for i := range nodes {
		cfg := sim.DefaultConfig()
		cfg.Seed = workload.SplitSeed(3, uint64(i))
		nodes[i] = NodeSpec{
			Config:    cfg,
			LC:        sim.AppSpec{LC: &lc, Load: 0.2, MeanInterarrival: 60_000, DeadlineCycles: 50_000},
			Batch:     []sim.AppSpec{{Batch: &batch, ROIInstructions: 150_000}},
			NewPolicy: func() policy.Policy { return core.NewUbikWithSlack(0.05) },
		}
	}
	return Spec{
		Nodes:                 nodes,
		Fanout:                2,
		Balancer:              BalanceP2C,
		Queries:               120,
		WarmupQueries:         12,
		QueryMeanInterarrival: 60_000 * 2 / 4.0,
		HedgeDelayCycles:      40_000,
		Seed:                  3,
	}
}

// BenchmarkClusterRun times a full bench-scale cluster run: plan, 4 node
// simulations (inline, so the number is machine-load independent) and the
// aggregation join.
func BenchmarkClusterRun(b *testing.B) {
	spec := benchSpec(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(spec, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterAggregate isolates the fan-out aggregation hot path: the
// plan and node results are built once, only the leaf-to-query join is
// timed.
func BenchmarkClusterAggregate(b *testing.B) {
	spec := benchSpec(b)
	plan, err := buildPlan(spec)
	if err != nil {
		b.Fatal(err)
	}
	// Synthetic node results shaped exactly like the plan demands.
	results := make([]sim.Result, len(spec.Nodes))
	for n := range results {
		lats := make([]float64, len(plan.nodeTimes[n])-plan.nodeWarmup[n])
		for i := range lats {
			lats[i] = float64(20_000 + (i*7919)%60_000)
		}
		results[n] = fakeNodeResult(lats...)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := aggregate(spec, plan, results); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterPlan isolates the serial front-end: arrival drawing plus
// balancer-driven leaf assignment.
func BenchmarkClusterPlan(b *testing.B) {
	spec := benchSpec(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := buildPlan(spec); err != nil {
			b.Fatal(err)
		}
	}
}

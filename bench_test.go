// Package repro's top-level benchmarks regenerate every table and figure of
// the paper at a reduced "bench" scale (see DESIGN.md §3 for the experiment
// index). Each benchmark prints or computes the same rows/series the paper
// reports; run the cmd/experiments tool at -scale default or -scale full for
// larger, lower-noise versions of the same tables.
package repro

import (
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/experiment"
	"repro/internal/mix"
	"repro/internal/monitor"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/workload"
)

// benchScale is deliberately tiny so the whole benchmark suite completes in a
// few minutes; it preserves the experiment structure, not statistical power.
func benchScale() experiment.Scale {
	return experiment.Scale{RequestFactor: 0.03, MixesPerLC: 1, BatchROI: 100_000, LoadPoints: 3, Seed: 2}
}

func benchConfig() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Seed = 2
	return cfg
}

// benchMixes returns one low-load and one high-load mix for the sweep-style
// benchmarks.
func benchMixes(b *testing.B) []mix.Mix {
	b.Helper()
	lcApp, err := workload.LCByName("specjbb")
	if err != nil {
		b.Fatal(err)
	}
	batches, err := mix.BatchMixes(1, 2)
	if err != nil {
		b.Fatal(err)
	}
	return []mix.Mix{
		{ID: 0, LC: mix.LCConfig{App: lcApp, Level: mix.LowLoad, Instances: 3}, Batch: batches[3]},
		{ID: 1, LC: mix.LCConfig{App: lcApp, Level: mix.HighLoad, Instances: 3}, Batch: batches[7]},
	}
}

// --- Section 3 characterization -------------------------------------------

// BenchmarkFig1LoadLatency regenerates the Figure 1a load-latency curves.
func BenchmarkFig1LoadLatency(b *testing.B) {
	cfg, scale := benchConfig(), benchScale()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Fig1LoadLatency(cfg, scale); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1ServiceCDF regenerates the Figure 1b service-time CDFs.
func BenchmarkFig1ServiceCDF(b *testing.B) {
	cfg, scale := benchConfig(), benchScale()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Fig1ServiceCDF(cfg, scale); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2Breakdown regenerates the Figure 2 LLC reuse breakdown.
func BenchmarkFig2Breakdown(b *testing.B) {
	cfg, scale := benchConfig(), benchScale()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Fig2Breakdown(cfg, scale); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Section 7 main comparison (Figure 9, Table 3, Figure 10) -------------

// BenchmarkFig9Distributions runs the five-scheme comparison over the bench
// mixes and builds the Figure 9 distributions.
func BenchmarkFig9Distributions(b *testing.B) {
	cfg, scale := benchConfig(), benchScale()
	mixes := benchMixes(b)
	for i := 0; i < b.N; i++ {
		baselines := experiment.NewBaselines(cfg, scale)
		records, err := experiment.Sweep(cfg, scale, baselines, mixes, experiment.StandardSchemes())
		if err != nil {
			b.Fatal(err)
		}
		if tables := experiment.Fig9Distributions(records); len(tables) == 0 {
			b.Fatal("no distribution tables produced")
		}
	}
}

// BenchmarkTable3Speedups runs the comparison and aggregates Table 3.
func BenchmarkTable3Speedups(b *testing.B) {
	cfg, scale := benchConfig(), benchScale()
	mixes := benchMixes(b)
	for i := 0; i < b.N; i++ {
		baselines := experiment.NewBaselines(cfg, scale)
		records, err := experiment.Sweep(cfg, scale, baselines, mixes, experiment.StandardSchemes())
		if err != nil {
			b.Fatal(err)
		}
		if t := experiment.Table3Speedups(records); len(t.Rows) == 0 {
			b.Fatal("empty table 3")
		}
	}
}

// BenchmarkFig10PerApp runs the comparison and builds the per-app tables.
func BenchmarkFig10PerApp(b *testing.B) {
	cfg, scale := benchConfig(), benchScale()
	mixes := benchMixes(b)
	for i := 0; i < b.N; i++ {
		baselines := experiment.NewBaselines(cfg, scale)
		records, err := experiment.Sweep(cfg, scale, baselines, mixes, experiment.StandardSchemes())
		if err != nil {
			b.Fatal(err)
		}
		if tables := experiment.PerAppTables(records, "fig10", "OOO cores"); len(tables) != 2 {
			b.Fatal("expected 2 per-app tables")
		}
	}
}

// BenchmarkFig11InOrder runs the comparison on in-order cores.
func BenchmarkFig11InOrder(b *testing.B) {
	cfg, scale := benchConfig(), benchScale()
	cfg.Core = cpu.DefaultModel(cpu.InOrder)
	mixes := benchMixes(b)[:1]
	for i := 0; i < b.N; i++ {
		baselines := experiment.NewBaselines(cfg, scale)
		records, err := experiment.Sweep(cfg, scale, baselines, mixes, experiment.StandardSchemes())
		if err != nil {
			b.Fatal(err)
		}
		if tables := experiment.PerAppTables(records, "fig11", "In-order cores"); len(tables) != 2 {
			b.Fatal("expected 2 per-app tables")
		}
	}
}

// BenchmarkFig12Slack runs the Ubik slack sweep.
func BenchmarkFig12Slack(b *testing.B) {
	cfg, scale := benchConfig(), benchScale()
	mixes := benchMixes(b)[:1]
	for i := 0; i < b.N; i++ {
		baselines := experiment.NewBaselines(cfg, scale)
		records, err := experiment.Sweep(cfg, scale, baselines, mixes, experiment.UbikSlackSchemes())
		if err != nil {
			b.Fatal(err)
		}
		if tables := experiment.PerAppTables(records, "fig12", "Slack"); len(tables) != 2 {
			b.Fatal("expected 2 slack tables")
		}
	}
}

// BenchmarkFig13PartScheme runs Ubik on every partitioning scheme and array.
func BenchmarkFig13PartScheme(b *testing.B) {
	cfg, scale := benchConfig(), benchScale()
	mixes := benchMixes(b)[:1]
	ubik := experiment.StandardSchemes()[4:5]
	for i := 0; i < b.N; i++ {
		for _, ac := range experiment.Fig13ArrayConfigs(cfg.LLC.Lines, cfg.LLC.Partitions) {
			runCfg := cfg
			runCfg.LLC = ac.LLC
			baselines := experiment.NewBaselines(runCfg, scale)
			if _, err := experiment.Sweep(runCfg, scale, baselines, mixes, ubik); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig14HierarchySweep runs Ubik under every private-level hierarchy
// configuration.
func BenchmarkFig14HierarchySweep(b *testing.B) {
	cfg, scale := benchConfig(), benchScale()
	mixes := benchMixes(b)[:1]
	ubik := experiment.StandardSchemes()[4:5]
	for i := 0; i < b.N; i++ {
		for _, hc := range experiment.Fig14HierarchyConfigs() {
			runCfg := cfg
			runCfg.Hierarchy = hc.Hier
			baselines := experiment.NewBaselines(runCfg, scale)
			if _, err := experiment.Sweep(runCfg, scale, baselines, mixes, ubik); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Ablations --------------------------------------------------------------

// BenchmarkAblationDeboost compares accurate de-boosting with waiting for the
// deadline on the bench mix.
func BenchmarkAblationDeboost(b *testing.B) {
	cfg, scale := benchConfig(), benchScale()
	mixes := benchMixes(b)[:1]
	schemes := []experiment.Scheme{
		{Name: "Ubik (accurate de-boost)", NewPolicy: func() policy.Policy { return core.NewUbikWithSlack(0.05) }},
		{Name: "Ubik (deadline de-boost)", NewPolicy: func() policy.Policy {
			return core.NewUbikWithConfig(core.Config{Slack: 0.05, DisableDeboost: true, BoostTimeoutDeadlines: 1})
		}},
	}
	for i := 0; i < b.N; i++ {
		baselines := experiment.NewBaselines(cfg, scale)
		if _, err := experiment.Sweep(cfg, scale, baselines, mixes, schemes); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationTransientBound compares conservative bounds with exact
// transient summations on the bench mix.
func BenchmarkAblationTransientBound(b *testing.B) {
	cfg, scale := benchConfig(), benchScale()
	mixes := benchMixes(b)[:1]
	schemes := []experiment.Scheme{
		{Name: "Ubik (conservative bounds)", NewPolicy: func() policy.Policy { return core.NewUbikWithSlack(0.05) }},
		{Name: "Ubik (exact transients)", NewPolicy: func() policy.Policy {
			return core.NewUbikWithConfig(core.Config{Slack: 0.05, ExactTransients: true})
		}},
	}
	for i := 0; i < b.N; i++ {
		baselines := experiment.NewBaselines(cfg, scale)
		if _, err := experiment.Sweep(cfg, scale, baselines, mixes, schemes); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Microbenchmarks of the core data structures ---------------------------

// The cache access-path microbenchmarks (with their 0 allocs/op contract)
// live next to the code in internal/cache/bench_test.go.

// BenchmarkUMONAccess measures the sampled utility monitor.
func BenchmarkUMONAccess(b *testing.B) {
	u, err := monitor.NewUMON(6144, 32, 64)
	if err != nil {
		b.Fatal(err)
	}
	rng := workload.NewRand(1)
	addrs := make([]uint64, 1<<15)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(20000))
	}
	mask := len(addrs) - 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u.Access(addrs[i&mask])
	}
}

// BenchmarkLookahead measures UCP's allocation algorithm at the paper's
// 256-bucket granularity.
func BenchmarkLookahead(b *testing.B) {
	total := uint64(6144)
	curves := make([]policy.WeightedCurve, 6)
	for i := range curves {
		curves[i] = policy.WeightedCurve{
			Curve:  monitor.FlatCurve(total, 257, float64(1000+i*300), 5000),
			Weight: 80,
		}
		for j := range curves[i].Curve.Misses {
			curves[i].Curve.Misses[j] *= 1 - float64(j)/float64(len(curves[i].Curve.Misses))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		policy.Lookahead(curves, total, total/256)
	}
}

// BenchmarkComputeSizing measures Ubik's per-application sizing computation.
func BenchmarkComputeSizing(b *testing.B) {
	curve := monitor.FlatCurve(6144, 257, 1000, 2000)
	for j := range curve.Misses {
		curve.Misses[j] *= 1 - 0.9*float64(j)/float64(len(curve.Misses))
	}
	in := core.SizingInput{
		Curve: curve, C: 60, M: 80, SActive: 1024, SBoostMax: 2048,
		DeadlineCycles: 400_000, Options: 16, BucketLines: 24, IdleFraction: 0.8,
		BatchHitsGain: func(extra uint64) float64 { return float64(extra) },
		BatchMissCost: func(lost uint64) float64 { return float64(lost) },
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.ComputeSizing(in)
	}
}

// BenchmarkSingleMixUbik measures one complete mix simulation under Ubik — the
// unit of work behind every figure.
func BenchmarkSingleMixUbik(b *testing.B) {
	cfg, scale := benchConfig(), benchScale()
	mixes := benchMixes(b)[:1]
	baselines := experiment.NewBaselines(cfg, scale)
	ubik := experiment.StandardSchemes()[4]
	// Warm the baseline cache outside the timed region.
	if _, err := experiment.RunMixScheme(cfg, scale, baselines, mixes[0], ubik); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunMixScheme(cfg, scale, baselines, mixes[0], ubik); err != nil {
			b.Fatal(err)
		}
	}
}

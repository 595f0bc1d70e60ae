package experiment

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/mix"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/workload"
)

// microScale keeps experiment unit tests fast: a couple of mixes, very few
// requests.
func microScale() Scale {
	return Scale{RequestFactor: 0.05, MixesPerLC: 1, BatchROI: 120_000, LoadPoints: 3, Seed: 5, Parallelism: 4}
}

func microConfig() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Seed = 5
	return cfg
}

func TestScalePresets(t *testing.T) {
	for _, s := range []Scale{QuickScale(), DefaultScale(), FullScale()} {
		if s.RequestFactor <= 0 || s.BatchROI == 0 || s.LoadPoints < 2 {
			t.Errorf("scale preset incomplete: %+v", s)
		}
	}
	if FullScale().MixesPerLC != 40 {
		t.Errorf("full scale should cover all 40 batch mixes per LC config")
	}
	var zero Scale
	if zero.requestFactor() != 1 {
		t.Errorf("zero request factor should default to 1")
	}
}

func TestStandardSchemes(t *testing.T) {
	schemes := StandardSchemes()
	if len(schemes) != 5 {
		t.Fatalf("expected 5 standard schemes")
	}
	names := map[string]bool{}
	for _, s := range schemes {
		names[s.Name] = true
		if s.NewPolicy == nil || s.NewPolicy() == nil {
			t.Errorf("scheme %s has no policy factory", s.Name)
		}
	}
	for _, want := range []string{"LRU", "UCP", "OnOff", "StaticLC", "Ubik"} {
		if !names[want] {
			t.Errorf("missing scheme %s", want)
		}
	}
	if !schemes[0].Unpartitioned {
		t.Errorf("the LRU scheme must run on an unpartitioned cache")
	}
	if len(UbikSlackSchemes()) != 4 {
		t.Errorf("expected 4 slack schemes")
	}
}

func TestTableRendering(t *testing.T) {
	tab := Table{
		ID:     "test",
		Title:  "A table",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
	}
	s := tab.String()
	if !strings.Contains(s, "test") || !strings.Contains(s, "333") {
		t.Errorf("rendered table missing content:\n%s", s)
	}
	csv := tab.CSV()
	if !strings.Contains(csv, "a,b") || !strings.Contains(csv, "333,4") {
		t.Errorf("CSV rendering wrong:\n%s", csv)
	}
}

func TestStaticTables(t *testing.T) {
	t1 := Table1Workloads()
	if len(t1.Rows) != 5 {
		t.Errorf("Table 1 should have 5 workloads")
	}
	t2 := Table2System(microConfig())
	if len(t2.Rows) < 5 {
		t.Errorf("Table 2 too small")
	}
	u := UtilizationEstimate(0.2, 3, 6)
	if len(u.Rows) != 2 {
		t.Fatalf("utilization table should have 2 rows")
	}
	if u.Rows[0][1] >= u.Rows[1][1] {
		t.Errorf("colocation should increase utilization: %v", u.Rows)
	}
	// Degenerate arguments are clamped.
	if got := UtilizationEstimate(0.2, 0, 0); len(got.Rows) != 2 {
		t.Errorf("degenerate utilization arguments should still work")
	}
}

func TestInstanceSeedsDistinct(t *testing.T) {
	lcs := mix.LCConfigs(3)
	seen := map[uint64]bool{}
	for _, lc := range lcs {
		for i := 0; i < 3; i++ {
			s := instanceSeed(1, lc, i)
			if seen[s] {
				t.Fatalf("duplicate instance seed for %s instance %d", lc.Name(), i)
			}
			seen[s] = true
		}
	}
	if instanceSeed(1, lcs[0], 0) != instanceSeed(1, lcs[0], 0) {
		t.Errorf("instance seeds must be deterministic")
	}
}

func TestMixesFor(t *testing.T) {
	small, err := MixesFor(microScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(small) != 10 {
		t.Errorf("1 mix per LC config should give 10 mixes, got %d", len(small))
	}
	full, err := MixesFor(FullScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != 400 {
		t.Errorf("full scale should give the 400-mix matrix, got %d", len(full))
	}
}

// measureIsolation runs a group's isolation phases on cfg at scale as sweep
// does, through the baselines' warm pool.
func measureIsolation(cfg sim.Config, scale Scale, b *Baselines, mixes []mix.Mix, workers int) (*isolation, error) {
	var calib, measure jobList
	iso := calibrate(&calib, cfg, scale, mixes)
	if err := calib.run(workers, b.pool); err != nil {
		return nil, err
	}
	if err := iso.measure(&measure); err != nil {
		return nil, err
	}
	if err := measure.run(workers, b.pool); err != nil {
		return nil, err
	}
	return iso, iso.pool(95)
}

func TestBaselinesCaching(t *testing.T) {
	cfg := microConfig()
	scale := microScale()
	b := NewBaselines(cfg, scale)
	lc := mix.LCConfig{App: mustLC(t, "masstree"), Level: mix.LowLoad, Instances: 2}
	batch, _ := workload.BatchByName("povray")
	mixes := []mix.Mix{{LC: lc, Batch: mix.BatchMix{Apps: []workload.BatchProfile{batch}}}}
	first, err := measureIsolation(cfg, scale, b, mixes, scale.Parallelism)
	if err != nil {
		t.Fatal(err)
	}
	entries := b.pool.ResultCount()
	second, err := measureIsolation(cfg, scale, b, mixes, scale.Parallelism)
	if err != nil {
		t.Fatal(err)
	}
	if b.pool.ResultCount() != entries {
		t.Errorf("a repeated measurement added pool entries (%d -> %d)", entries, b.pool.ResultCount())
	}
	if first.base.out[0].MeanInterarrival != second.base.out[0].MeanInterarrival {
		t.Errorf("cached baseline should be identical")
	}
	tail1, tail2 := first.tails[0], second.tails[0]
	if tail1 != tail2 || tail1 <= 0 {
		t.Errorf("pooled isolated tail should be cached and positive")
	}
	ipc1, ipc2 := *first.ipcs["povray"], *second.ipcs["povray"]
	if ipc1 != ipc2 || ipc1 <= 0 {
		t.Errorf("batch IPC should be cached and positive")
	}
}

// TestWarmedPooledTailSharedByWorkers pins what measurements through one warm
// pool rely on: the isolation runs a sweep put in the pool are read by every
// later measurement of their configuration at once, each pooling and sorting
// its own copy of the latencies — so concurrent readers must agree with a
// serial reader (and stay clean under -race).
func TestWarmedPooledTailSharedByWorkers(t *testing.T) {
	cfg, scale := microConfig(), microScale()
	lc := mix.LCConfig{App: mustLC(t, "masstree"), Level: mix.LowLoad, Instances: 2}
	batches, err := mix.BatchMixes(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	mixes := []mix.Mix{{ID: 0, LC: lc, Batch: batches[0]}}
	serial, err := measureIsolation(cfg, scale, NewBaselines(cfg, scale), mixes, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := serial.tails[0]
	warmed := NewBaselines(cfg, scale)
	if _, err := measureIsolation(cfg, scale, warmed, mixes, 4); err != nil {
		t.Fatal(err)
	}
	got := make([]float64, 8)
	var lined, wg sync.WaitGroup // lined is the start barrier: every reader queries at once
	lined.Add(len(got))
	wg.Add(len(got))
	for i := range got {
		go func() {
			defer wg.Done()
			lined.Done()
			lined.Wait()
			iso, err := measureIsolation(cfg, scale, warmed, mixes, 1)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = iso.tails[0]
		}()
	}
	wg.Wait()
	for i, v := range got {
		if v != want {
			t.Errorf("reader %d saw pooled tail %v, want %v", i, v, want)
		}
	}
}

func mustLC(t *testing.T, name string) workload.LCProfile {
	t.Helper()
	p, err := workload.LCByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestMicroSweepAndAggregations(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps are slow")
	}
	cfg := microConfig()
	scale := microScale()
	// Two mixes, two schemes: enough to exercise every aggregation path.
	lc := mix.LCConfig{App: mustLC(t, "masstree"), Level: mix.LowLoad, Instances: 2}
	lcHigh := mix.LCConfig{App: mustLC(t, "masstree"), Level: mix.HighLoad, Instances: 2}
	batches, err := mix.BatchMixes(1, scale.Seed)
	if err != nil {
		t.Fatal(err)
	}
	mixes := []mix.Mix{
		{ID: 0, LC: lc, Batch: batches[0]},
		{ID: 1, LC: lcHigh, Batch: batches[1]},
	}
	schemes := []Scheme{StandardSchemes()[3], StandardSchemes()[4]} // StaticLC and Ubik
	baselines := NewBaselines(cfg, scale)
	records, err := Sweep(cfg, scale, baselines, mixes, schemes)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 4 {
		t.Fatalf("expected 4 records (2 mixes x 2 schemes), got %d", len(records))
	}
	for _, r := range records {
		if r.TailDegradation <= 0 {
			t.Errorf("record %s/%s has nonpositive tail degradation", r.Mix.Name(), r.Scheme)
		}
		if r.WeightedSpeedup <= 0 {
			t.Errorf("record %s/%s has nonpositive weighted speedup", r.Mix.Name(), r.Scheme)
		}
	}

	dist := Fig9Distributions(records)
	if len(dist) != 4 {
		t.Errorf("expected 4 distribution tables (2 loads x 2 metrics), got %d", len(dist))
	}
	perApp := PerAppTables(records, "fig10", "OOO cores")
	if len(perApp) != 2 {
		t.Fatalf("expected tail and ws tables")
	}
	if len(perApp[0].Rows) == 0 || len(perApp[1].Rows) == 0 {
		t.Errorf("per-app tables should have rows")
	}
	t3 := Table3Speedups(records)
	if len(t3.Rows) != 2 {
		t.Errorf("Table 3 should have a low-load and a high-load row")
	}
	if names := recordSchemes(records); len(names) != 2 {
		t.Errorf("expected 2 schemes in records, got %v", names)
	}

	// The isolation runs use the machine, seed and request factor the sweep
	// is given: baselines built for another machine contribute only their
	// warm pool, so the records match.
	other, otherScale := microConfig(), microScale()
	other.Core = cpu.DefaultModel(cpu.InOrder)
	other.LLC.Lines *= 2
	otherScale.Seed, otherScale.RequestFactor = 99, 2*scale.RequestFactor
	again, err := Sweep(cfg, scale, NewBaselines(other, otherScale), mixes, schemes)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range again {
		if !reflect.DeepEqual(r, records[i]) {
			t.Errorf("record %d with another machine's baselines = %+v, want %+v", i, r, records[i])
		}
	}
}

// TestSweepUnderEveryFigureConfiguration runs one mix through each machine
// and scheme variation the figure runners sweep that no golden path reaches:
// in-order cores under the five schemes (fig11), the four Ubik slack settings
// (fig12), every Figure 13 partitioning scheme and array, and Ubik with exact
// transient sums (abl-bound) — plus the service-time CDFs of fig1b. Every
// record must carry a positive tail degradation and weighted speedup.
func TestSweepUnderEveryFigureConfiguration(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps are slow")
	}
	scale := microScale()
	scale.RequestFactor = 0.03
	batches, err := mix.BatchMixes(1, scale.Seed)
	if err != nil {
		t.Fatal(err)
	}
	mixes := []mix.Mix{{ID: 0, LC: mix.LCConfig{App: mustLC(t, "specjbb"), Level: mix.LowLoad, Instances: 3}, Batch: batches[3]}}
	ubik := StandardSchemes()[4:5]
	type variation struct {
		name    string
		cfg     sim.Config
		schemes []Scheme
	}
	inOrder := microConfig()
	inOrder.Core = cpu.DefaultModel(cpu.InOrder)
	variations := []variation{
		{"fig11 in-order cores", inOrder, StandardSchemes()},
		{"fig12 slack", microConfig(), UbikSlackSchemes()},
		{"abl-bound exact transients", microConfig(), []Scheme{{Name: "Ubik (exact transients)", NewPolicy: func() policy.Policy {
			return core.NewUbikWithConfig(core.Config{Slack: 0.05, ExactTransients: true})
		}}}},
	}
	for _, ac := range Fig13ArrayConfigs(microConfig().LLC.Lines, microConfig().LLC.Partitions) {
		cfg := microConfig()
		cfg.LLC = ac.LLC
		variations = append(variations, variation{"fig13 " + ac.Name, cfg, ubik})
	}
	for _, v := range variations {
		records, err := Sweep(v.cfg, scale, NewBaselines(v.cfg, scale), mixes, v.schemes)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		if len(records) != len(v.schemes) {
			t.Errorf("%s: %d records for %d schemes", v.name, len(records), len(v.schemes))
		}
		for _, r := range records {
			if !(r.TailDegradation > 0) || !(r.WeightedSpeedup > 0) {
				t.Errorf("%s/%s: tail degradation %v, weighted speedup %v, want both positive",
					v.name, r.Scheme, r.TailDegradation, r.WeightedSpeedup)
			}
		}
	}

	cdfs, err := Fig1ServiceCDF(microConfig(), scale)
	if err != nil {
		t.Fatal(err)
	}
	if len(cdfs) != len(workload.AllLCProfiles()) {
		t.Errorf("fig1b: %d tables for %d latency-critical apps", len(cdfs), len(workload.AllLCProfiles()))
	}
	for _, table := range cdfs {
		if len(table.Rows) == 0 {
			t.Errorf("%s has no rows", table.ID)
		}
	}
}

// TestSweepDeterministicUnderParallelism is the contract the sharded runners
// must keep: the same Scale.Seed produces bit-identical MixRecords whether the
// sweep — and the load points and per-instance isolation baselines below it —
// runs on 1 or 4 workers.
func TestSweepDeterministicUnderParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps are slow")
	}
	cfg := microConfig()
	lc := mix.LCConfig{App: mustLC(t, "masstree"), Level: mix.LowLoad, Instances: 2}
	batches, err := mix.BatchMixes(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	mixes := []mix.Mix{{ID: 0, LC: lc, Batch: batches[0]}}
	schemes := []Scheme{StandardSchemes()[3], StandardSchemes()[4]} // StaticLC and Ubik

	variants := []struct {
		name        string
		parallelism int
	}{
		{"p1", 1},
		{"p4", 4},
	}
	var reference []MixRecord
	for _, v := range variants {
		scale := microScale()
		scale.Parallelism = v.parallelism
		// Fresh baselines per variant: cached values must be recomputed under
		// each parallelism setting for the comparison to mean anything.
		records, err := Sweep(cfg, scale, NewBaselines(cfg, scale), mixes, schemes)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		if reference == nil {
			reference = records
			continue
		}
		if len(records) != len(reference) {
			t.Fatalf("%s: %d records, want %d", v.name, len(records), len(reference))
		}
		for i, r := range records {
			ref := reference[i]
			if r.Scheme != ref.Scheme || r.Mix.ID != ref.Mix.ID {
				t.Fatalf("%s: record %d is (%s, mix %d), want (%s, mix %d)",
					v.name, i, r.Scheme, r.Mix.ID, ref.Scheme, ref.Mix.ID)
			}
			// Bit-exact equality, not tolerance: sharding must not change a
			// single simulated event.
			if r.TailDegradation != ref.TailDegradation ||
				r.WeightedSpeedup != ref.WeightedSpeedup ||
				r.PooledTailCycles != ref.PooledTailCycles ||
				r.BaselineTailCycles != ref.BaselineTailCycles {
				t.Errorf("%s: record %d differs from %s:\n got  %+v\n want %+v",
					v.name, i, variants[0].name, r, ref)
			}
		}
	}
}

// TestFig14HierarchySweepDeterministicUnderParallelism extends the sharding
// contract to the private-hierarchy sensitivity sweep: every hierarchy
// configuration's row must be bit-identical at any parallelism.
func TestFig14HierarchySweepDeterministicUnderParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps are slow")
	}
	if len(Fig14HierarchyConfigs()) != 5 {
		t.Fatalf("expected 5 hierarchy configurations")
	}
	serial := goldenTables(t, "fig14", 1).tables
	sharded := goldenTables(t, "fig14", 4).tables
	if !reflect.DeepEqual(serial, sharded) {
		t.Errorf("sharded hierarchy sweep differs from serial:\n got  %+v\n want %+v", sharded, serial)
	}
	if len(serial) != 1 || len(serial[0].Rows) != 5 {
		t.Fatalf("expected one summary table with 5 rows, got %+v", serial)
	}
	for _, row := range serial[0].Rows {
		if row[1] == "" || row[3] == "" {
			t.Errorf("hierarchy row %q missing metrics", row[0])
		}
	}
}

// TestFig1LoadLatencyDeterministicUnderSharding checks the sharded load sweep
// against its serial form.
func TestFig1LoadLatencyDeterministicUnderSharding(t *testing.T) {
	if testing.Short() {
		t.Skip("load sweeps are slow")
	}
	serial := goldenTables(t, "fig1a", 1).tables
	sharded := goldenTables(t, "fig1a", 4).tables
	if !reflect.DeepEqual(serial, sharded) {
		t.Errorf("sharded load sweep differs from serial:\n got  %+v\n want %+v", sharded, serial)
	}
}

func TestFig2BreakdownMicro(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization runs are slow")
	}
	cfg := microConfig()
	tables, err := Fig2Breakdown(cfg, microScale()) // 4 workers
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("expected 2MB and 8MB tables")
	}
	serial := microScale()
	serial.Parallelism = 1
	if again, err := Fig2Breakdown(cfg, serial); err != nil {
		t.Fatal(err)
	} else if !reflect.DeepEqual(again, tables) {
		t.Error("fig2 tables differ between workers 1 and 4")
	}
	for _, tab := range tables {
		if len(tab.Rows) != 5 {
			t.Errorf("%s should have one row per LC app", tab.ID)
		}
	}
	// The 8MB cache should not have a higher overall miss fraction than the
	// 2MB cache for any app (last fraction column before cross_request).
	missCol := len(tables[0].Header) - 2
	for i := range tables[0].Rows {
		if tables[1].Rows[i][missCol] > tables[0].Rows[i][missCol] {
			// String comparison works here only when magnitudes match, so
			// just report without failing hard if formatting differs.
			t.Logf("note: %s misses at 8MB (%s) vs 2MB (%s)", tables[0].Rows[i][0],
				tables[1].Rows[i][missCol], tables[0].Rows[i][missCol])
		}
	}
}

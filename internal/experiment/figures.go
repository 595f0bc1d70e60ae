package experiment

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/mix"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Fig1LoadLatency reproduces Figure 1a: mean and tail latency as a function of
// offered load for every latency-critical application running alone on a 2 MB
// LLC. The (application, load point) grid is two job lists — one calibration
// per application, then every point's load run — each an independent
// seed-determined run whose row lands in its grid slot, so the tables are
// identical at any parallelism.
func Fig1LoadLatency(cfg sim.Config, scale Scale) ([]Table, error) {
	points := scale.LoadPoints
	if points < 2 {
		points = 4
	}
	profiles := workload.AllLCProfiles()
	var targets []sim.LCBaseline
	for _, p := range profiles {
		for i := range points {
			targets = append(targets, sim.LCBaseline{Profile: p, Load: 0.1 + 0.8*float64(i)/float64(points-1)})
		}
	}
	bases, err := measureBaselines(cfg, targets, scale.requestFactor(), scale.Parallelism, scale.Warm)
	if err != nil {
		return nil, err
	}
	var tables []Table
	for pi, p := range profiles {
		t := Table{
			ID:     "fig1a-" + p.Name,
			Title:  fmt.Sprintf("Load-latency for %s (cycles, isolated, 2 MB LLC)", p.Name),
			Header: []string{"load", "mean_latency", "tail95_latency"},
		}
		for _, base := range bases[pi*points : (pi+1)*points] {
			t.Rows = append(t.Rows, []string{f3(base.Load), f0(base.MeanLatency), f0(base.TailLatency)})
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// lowLoadIsolation runs every latency-critical profile alone at its low-load
// arrival spacing, on the seed of a single-instance mix's instance, once per
// private LLC size (0 = the profile's target), as two job lists: one
// calibration per profile, then every isolated run. out[s][p] is the one app
// result of size s's run of profile p.
func lowLoadIsolation(cfg sim.Config, scale Scale, sizes []uint64) ([][]sim.AppResult, error) {
	profiles := workload.AllLCProfiles()
	var targets []sim.LCBaseline
	for _, p := range profiles {
		targets = append(targets, sim.LCBaseline{Profile: p, Load: mix.LowLoad.Value()})
	}
	b := &lcBaselines{cfg, scale.requestFactor(), targets}
	var calib, runs jobList
	b.calibrate(&calib)
	if err := calib.run(scale.Parallelism, scale.Warm); err != nil {
		return nil, err
	}
	out := make([][]sim.AppResult, len(sizes))
	for s, lines := range sizes {
		out[s] = make([]sim.AppResult, len(profiles))
		for i, p := range profiles {
			interarrival, err := workload.MeanInterarrivalForLoad(b.out[i].MeanServiceCycles, b.out[i].Load)
			if err != nil {
				return nil, err
			}
			lc := mix.LCConfig{App: p, Level: mix.LowLoad, Instances: 1}
			runs.add(sim.IsolatedLCJob(cfg, p, lines, interarrival, scale.requestFactor(), instanceSeed(scale.Seed, lc, 0)),
				func(res sim.Result) error {
					out[s][i] = res.Apps[0]
					return nil
				})
		}
	}
	if err := runs.run(scale.Parallelism, scale.Warm); err != nil {
		return nil, err
	}
	return out, nil
}

// Fig1ServiceCDF reproduces Figure 1b: the CDF of request service times (no
// queueing delay) per latency-critical application.
func Fig1ServiceCDF(cfg sim.Config, scale Scale) ([]Table, error) {
	runs, err := lowLoadIsolation(cfg, scale, []uint64{0})
	if err != nil {
		return nil, err
	}
	var tables []Table
	for _, lcRes := range runs[0] {
		cdf, err := lcRes.ServiceTimes.CDF(11)
		if err != nil {
			return nil, err
		}
		t := Table{
			ID:     "fig1b-" + lcRes.Name,
			Title:  fmt.Sprintf("Service time CDF for %s (cycles)", lcRes.Name),
			Header: []string{"service_time", "fraction"},
		}
		for _, pt := range cdf {
			t.Rows = append(t.Rows, []string{f0(pt.Value), f3(pt.Fraction)})
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// Fig2Breakdown reproduces Figure 2: the breakdown of LLC accesses into misses
// and hits classified by how many requests ago the line was last touched, with
// 2 MB and 8 MB LLCs, plus each application's APKI.
func Fig2Breakdown(cfg sim.Config, scale Scale) ([]Table, error) {
	labels := []string{"2MB", "8MB"}
	runs, err := lowLoadIsolation(cfg, scale, []uint64{sim.LinesFor2MB, 4 * sim.LinesFor2MB})
	if err != nil {
		return nil, err
	}
	var tables []Table
	for s, label := range labels {
		t := Table{
			ID:    "fig2-" + label,
			Title: fmt.Sprintf("LLC access breakdown, %s LLC (fractions of accesses)", label),
			Header: []string{"app", "apki", "hits_same_req", "hits_1_ago", "hits_2_ago", "hits_3_ago",
				"hits_4_ago", "hits_5_ago", "hits_6_ago", "hits_7_ago", "hits_8plus", "misses", "cross_request_hit_frac"},
		}
		for _, lcRes := range runs[s] {
			row := []string{lcRes.Name, f1(lcRes.APKI)}
			var hits, cross float64
			for i, frac := range lcRes.ReuseBreakdown {
				row = append(row, f3(frac))
				if i < len(lcRes.ReuseBreakdown)-1 {
					hits += frac
					if i >= 1 {
						cross += frac
					}
				}
			}
			crossFrac := 0.0
			if hits > 0 {
				crossFrac = cross / hits
			}
			row = append(row, f3(crossFrac))
			t.Rows = append(t.Rows, row)
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// RunMainComparison runs the standard five schemes over the scaled mix matrix
// and returns the per-mix records; Figure 9, Table 3 and Figure 10 are
// different aggregations of these records.
func RunMainComparison(cfg sim.Config, scale Scale) ([]MixRecord, error) {
	records, err := sweepMatrix(scale, StandardSchemes(), cfg)
	if err != nil {
		return nil, err
	}
	return records[0], nil
}

// sweepMatrix runs schemes over the scaled mix matrix on every machine of
// cfgs as one sweep (three job lists); records[i] belongs to cfgs[i], whose
// isolation runs use the same machine as the mixes they normalise.
func sweepMatrix(scale Scale, schemes []Scheme, cfgs ...sim.Config) ([][]MixRecord, error) {
	scale = scale.withPool()
	mixes, err := MixesFor(scale)
	if err != nil {
		return nil, err
	}
	groups := make([]sweepGroup, len(cfgs))
	for i, cfg := range cfgs {
		groups[i] = sweepGroup{cfg, mixes, schemes}
	}
	return sweep(scale, scale.Warm, groups)
}

// ubikSummary runs Ubik (5% slack) over the mix matrix on every machine of
// cfgs as one sweep and summarises tail degradation and weighted speedup in
// one row per machine.
func ubikSummary(scale Scale, id, title, column string, names []string, cfgs []sim.Config) ([]Table, error) {
	records, err := sweepMatrix(scale, StandardSchemes()[4:5], cfgs...) // the Ubik scheme only
	if err != nil {
		return nil, err
	}
	t := Table{ID: id, Title: title, Header: []string{column, "avg_tail_degradation", "worst_tail_degradation", "avg_weighted_speedup"}}
	for i, name := range names {
		t.Rows = append(t.Rows, summaryRow(name, records[i]))
	}
	return []Table{t}, nil
}

// Fig9Distributions formats the per-mix distributions of tail-latency
// degradation and weighted speedup (sorted independently per scheme, as in the
// paper's Figure 9), split by load level.
func Fig9Distributions(records []MixRecord) []Table {
	var tables []Table
	schemes := recordSchemes(records)
	for _, level := range []mix.LoadLevel{mix.LowLoad, mix.HighLoad} {
		level := level
		keep := func(r MixRecord) bool { return r.Mix.LC.Level == level }
		for _, metric := range []struct {
			id, title string
			value     func(MixRecord) float64
			desc      bool
		}{
			{"tail", "Tail latency degradation distribution", func(r MixRecord) float64 { return r.TailDegradation }, true},
			{"ws", "Weighted speedup distribution", func(r MixRecord) float64 { return r.WeightedSpeedup }, false},
		} {
			t := Table{
				ID:     fmt.Sprintf("fig9-%s-%s", level, metric.id),
				Title:  fmt.Sprintf("%s (%s load), mixes sorted per scheme", metric.title, level),
				Header: append([]string{"rank"}, schemes...),
			}
			var perScheme [][]float64
			maxLen := 0
			for _, s := range schemes {
				vals := sortedValues(filterRecords(records, s, keep), metric.value, metric.desc)
				perScheme = append(perScheme, vals)
				if len(vals) > maxLen {
					maxLen = len(vals)
				}
			}
			for i := 0; i < maxLen; i++ {
				row := []string{fmt.Sprintf("%d", i)}
				for _, vals := range perScheme {
					if i < len(vals) {
						row = append(row, f3(vals[i]))
					} else {
						row = append(row, "")
					}
				}
				t.Rows = append(t.Rows, row)
			}
			tables = append(tables, t)
		}
	}
	return tables
}

// Table3Speedups reproduces Table 3: the average batch weighted speedup per
// scheme at low and high load.
func Table3Speedups(records []MixRecord) Table {
	t := Table{
		ID:     "table3",
		Title:  "Average weighted speedups per scheme (1.0 = private-LLC baseline)",
		Header: []string{"load", "LRU", "UCP", "OnOff", "StaticLC", "Ubik"},
	}
	schemes := []string{"LRU", "UCP", "OnOff", "StaticLC", "Ubik"}
	for _, level := range []mix.LoadLevel{mix.LowLoad, mix.HighLoad} {
		level := level
		row := []string{string(level)}
		for _, s := range schemes {
			recs := filterRecords(records, s, func(r MixRecord) bool { return r.Mix.LC.Level == level })
			row = append(row, f3(mean(recs, func(r MixRecord) float64 { return r.WeightedSpeedup })))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// PerAppTables reproduces Figure 10 (or Figure 11 when fed in-order records):
// per latency-critical application and load, each scheme's average and worst
// tail-latency degradation and its average weighted speedup.
func PerAppTables(records []MixRecord, id, title string) []Table {
	schemes := recordSchemes(records)
	tail := Table{
		ID:     id + "-tail",
		Title:  title + ": tail latency degradation (avg and worst mix)",
		Header: []string{"app", "load"},
	}
	ws := Table{
		ID:     id + "-ws",
		Title:  title + ": average weighted speedup",
		Header: []string{"app", "load"},
	}
	for _, s := range schemes {
		tail.Header = append(tail.Header, s+"_avg", s+"_worst")
		ws.Header = append(ws.Header, s)
	}
	for _, app := range workload.LCNames() {
		for _, level := range []mix.LoadLevel{mix.LowLoad, mix.HighLoad} {
			app, level := app, level
			keep := func(r MixRecord) bool { return r.Mix.LC.App.Name == app && r.Mix.LC.Level == level }
			tailRow := []string{app, string(level)}
			wsRow := []string{app, string(level)}
			any := false
			for _, s := range schemes {
				recs := filterRecords(records, s, keep)
				if len(recs) > 0 {
					any = true
				}
				tailRow = append(tailRow,
					f3(mean(recs, func(r MixRecord) float64 { return r.TailDegradation })),
					f3(maxOf(recs, func(r MixRecord) float64 { return r.TailDegradation })))
				wsRow = append(wsRow, f3(mean(recs, func(r MixRecord) float64 { return r.WeightedSpeedup })))
			}
			if any {
				tail.Rows = append(tail.Rows, tailRow)
				ws.Rows = append(ws.Rows, wsRow)
			}
		}
	}
	return []Table{tail, ws}
}

// Fig11InOrder runs the main comparison on simple in-order cores and returns
// the per-application tables (Figure 11).
func Fig11InOrder(cfg sim.Config, scale Scale) ([]Table, []MixRecord, error) {
	inCfg := cfg
	inCfg.Core = cpu.DefaultModel(cpu.InOrder)
	records, err := RunMainComparison(inCfg, scale)
	if err != nil {
		return nil, nil, err
	}
	return PerAppTables(records, "fig11", "In-order cores"), records, nil
}

// Fig12Slack runs Ubik with 0%, 1%, 5% and 10% slack over the mix matrix and
// returns per-application tables (Figure 12).
func Fig12Slack(cfg sim.Config, scale Scale) ([]Table, []MixRecord, error) {
	records, err := sweepMatrix(scale, UbikSlackSchemes(), cfg)
	if err != nil {
		return nil, nil, err
	}
	return PerAppTables(records[0], "fig12", "Ubik slack sensitivity"), records[0], nil
}

// Fig13ArrayConfigs returns the five partitioning-scheme/array combinations of
// Figure 13.
func Fig13ArrayConfigs(lines uint64, partitions int) []struct {
	Name string
	LLC  cache.ArrayConfig
} {
	return []struct {
		Name string
		LLC  cache.ArrayConfig
	}{
		{"WayPart SA16", cache.ArrayConfig{Kind: cache.ArraySetAssoc, Lines: lines, Ways: 16, Mode: cache.ModeWayPartition, Partitions: partitions}},
		{"WayPart SA64", cache.ArrayConfig{Kind: cache.ArraySetAssoc, Lines: lines, Ways: 64, Mode: cache.ModeWayPartition, Partitions: partitions}},
		{"Vantage SA16", cache.ArrayConfig{Kind: cache.ArraySetAssoc, Lines: lines, Ways: 16, Mode: cache.ModeVantage, Partitions: partitions}},
		{"Vantage SA64", cache.ArrayConfig{Kind: cache.ArraySetAssoc, Lines: lines, Ways: 64, Mode: cache.ModeVantage, Partitions: partitions}},
		{"Vantage Z4/52", cache.DefaultZ452(lines, partitions)},
	}
}

// Fig13PartScheme runs Ubik (5% slack) on every partitioning scheme and array
// organisation of Figure 13 and summarises tail degradation and weighted
// speedup per configuration.
func Fig13PartScheme(cfg sim.Config, scale Scale) ([]Table, error) {
	var names []string
	var cfgs []sim.Config
	for _, ac := range Fig13ArrayConfigs(cfg.LLC.Lines, cfg.LLC.Partitions) {
		runCfg := cfg
		runCfg.LLC = ac.LLC
		names, cfgs = append(names, ac.Name), append(cfgs, runCfg)
	}
	return ubikSummary(scale, "fig13", "Ubik (5% slack) under different partitioning schemes and arrays", "config", names, cfgs)
}

// Fig14HierarchyConfigs returns the private-level configurations of the
// hierarchy sensitivity sweep: the flat pre-hierarchy system, an L1-only
// filter, the Table 2 defaults (non-inclusive and inclusive), and a doubled
// hierarchy.
func Fig14HierarchyConfigs() []struct {
	Name string
	Hier cache.HierarchyConfig
} {
	def := cache.DefaultHierarchy()
	inclusive := def
	inclusive.L2.Inclusive = true
	double := cache.HierarchyConfig{
		L1: cache.LevelConfig{Lines: def.L1.Lines * 2, Ways: def.L1.Ways},
		L2: cache.LevelConfig{Lines: def.L2.Lines * 2, Ways: def.L2.Ways},
	}
	return []struct {
		Name string
		Hier cache.HierarchyConfig
	}{
		{"flat (no private levels)", cache.HierarchyConfig{}},
		{"L1 only", cache.HierarchyConfig{L1: def.L1}},
		{"L1+L2 Table 2", def},
		{"L1+L2 inclusive", inclusive},
		{"L1+L2 doubled", double},
	}
}

// Fig14HierarchySweep is the private-cache analogue of Figure 13: Ubik (5%
// slack) run over the mix matrix under each private-level configuration,
// summarising tail degradation and weighted speedup per hierarchy. Baselines
// are recomputed per configuration (isolation runs use the same private
// levels as the mix they normalise).
func Fig14HierarchySweep(cfg sim.Config, scale Scale) ([]Table, error) {
	var names []string
	var cfgs []sim.Config
	for _, hc := range Fig14HierarchyConfigs() {
		runCfg := cfg
		runCfg.Hierarchy = hc.Hier
		names, cfgs = append(names, hc.Name), append(cfgs, runCfg)
	}
	return ubikSummary(scale, "fig14", "Ubik (5% slack) under different private L1/L2 hierarchies", "hierarchy", names, cfgs)
}

// Table1Workloads reproduces Table 1: the latency-critical workload
// parameters as configured in this reproduction.
func Table1Workloads() Table {
	t := Table{
		ID:     "table1",
		Title:  "Latency-critical workload parameters (scaled model units)",
		Header: []string{"workload", "apki", "base_cpi", "mlp", "requests", "target_lines", "service_dist"},
	}
	for _, p := range workload.AllLCProfiles() {
		t.Rows = append(t.Rows, []string{
			p.Name, f1(p.APKI), f3(p.BaseCPI), f1(p.MLP),
			fmt.Sprintf("%d", p.Requests), fmt.Sprintf("%d", p.TargetLines()), p.Service.String(),
		})
	}
	return t
}

// Table2System reproduces Table 2: the simulated system configuration.
func Table2System(cfg sim.Config) Table {
	return Table{
		ID:     "table2",
		Title:  "Simulated system configuration (scaled model units)",
		Header: []string{"parameter", "value"},
		Rows: [][]string{
			{"LLC", cfg.LLC.String()},
			{"LLC lines", fmt.Sprintf("%d (stands in for 12 MB)", cfg.LLC.Lines)},
			{"private L1", cfg.Hierarchy.L1.String()},
			{"private L2", cfg.Hierarchy.L2.String()},
			{"core model", cfg.Core.Kind.String()},
			{"memory latency", f0(cfg.Core.MemLatencyCycles) + " cycles"},
			{"L3 hit latency", f0(cfg.Core.L3HitLatencyCycles) + " cycles"},
			{"L2 hit latency", f0(cfg.Core.L2HitLatencyCycles) + " cycles"},
			{"L1 hit latency", f0(cfg.Core.L1HitLatencyCycles) + " cycles"},
			{"reconfiguration interval", fmt.Sprintf("%d cycles", cfg.ReconfigIntervalCycles)},
			{"tail percentile", f0(cfg.TailPercentile)},
			{"UMON", fmt.Sprintf("%d ways x %d sampled sets", cfg.UMONWays, cfg.UMONSampleSets)},
		},
	}
}

// recordSchemes returns the scheme names present in records, in first-seen
// order.
func recordSchemes(records []MixRecord) []string {
	var out []string
	seen := map[string]bool{}
	for _, r := range records {
		if !seen[r.Scheme] {
			seen[r.Scheme] = true
			out = append(out, r.Scheme)
		}
	}
	return out
}

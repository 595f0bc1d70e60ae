package experiment

import (
	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/sim"
)

// AblationDeboost quantifies the value of Ubik's accurate de-boosting
// mechanism (Section 5.1.1): with it disabled, an activated application keeps
// its boost allocation until its deadline elapses, which costs batch
// throughput without improving tail latency.
func AblationDeboost(cfg sim.Config, scale Scale) (Table, error) {
	schemes := []Scheme{
		catalogued("Ubik (accurate de-boost)", "ubik", 0.05),
		{Name: "Ubik (deadline de-boost)", NewPolicy: func() policy.Policy {
			return core.NewUbikWithConfig(core.Config{Slack: 0.05, DisableDeboost: true, BoostTimeoutDeadlines: 1})
		}},
	}
	return runAblation(cfg, scale, "abl-deboost", "Accurate de-boosting vs waiting for the deadline", schemes)
}

// AblationTransientBound compares Ubik's conservative transient bounds against
// exact summations over the miss curve: the exact variant can downsize a bit
// more aggressively, trading a little tail-latency safety margin for batch
// throughput.
func AblationTransientBound(cfg sim.Config, scale Scale) (Table, error) {
	schemes := []Scheme{
		catalogued("Ubik (conservative bounds)", "ubik", 0.05),
		{Name: "Ubik (exact transients)", NewPolicy: func() policy.Policy {
			return core.NewUbikWithConfig(core.Config{Slack: 0.05, ExactTransients: true})
		}},
	}
	return runAblation(cfg, scale, "abl-bound", "Conservative transient bounds vs exact summation", schemes)
}

// runAblation sweeps the given Ubik variants over the scaled mix matrix and
// summarises tail degradation and weighted speedup.
func runAblation(cfg sim.Config, scale Scale, id, title string, schemes []Scheme) (Table, error) {
	records, err := sweepMatrix(scale, schemes, cfg)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:     id,
		Title:  title,
		Header: []string{"variant", "avg_tail_degradation", "worst_tail_degradation", "avg_weighted_speedup"},
	}
	for _, s := range schemes {
		t.Rows = append(t.Rows, summaryRow(s.Name, filterRecords(records[0], s.Name, nil)))
	}
	return t, nil
}

// UtilizationEstimate reproduces the Section 7.1 utilization argument: with
// best-effort LRU sharing the conventional approach dedicates machines to
// latency-critical applications (roughly 10% utilization at low load on half
// the cores), while StaticLC and Ubik let every core be used.
func UtilizationEstimate(lcLoad float64, lcCores, totalCores int) Table {
	if totalCores <= 0 {
		totalCores = 6
	}
	if lcCores <= 0 || lcCores > totalCores {
		lcCores = totalCores / 2
	}
	conventional := lcLoad * float64(lcCores) / float64(totalCores)
	colocated := (lcLoad*float64(lcCores) + float64(totalCores-lcCores)) / float64(totalCores)
	t := Table{
		ID:     "utilization",
		Title:  "Server utilization estimate (Section 7.1)",
		Header: []string{"approach", "utilization"},
		Rows: [][]string{
			{"dedicated (LRU, no colocation)", f3(conventional)},
			{"colocated (StaticLC/Ubik)", f3(colocated)},
		},
	}
	return t
}

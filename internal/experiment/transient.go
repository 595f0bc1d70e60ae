package experiment

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// The transient experiments drive time-varying offered load through every
// management scheme — the traffic pattern Ubik's boost/de-boost machinery
// was designed for, which the constant-load sweeps never exercise. fig7
// reports tail latency over time across one load transition (the analogue of
// the paper's Figure 7 latency-vs-time view); flash sweeps flash-crowd
// magnitudes and measures how each scheme's tail recovers.

// DefaultFig7Schedule is the load transition fig7 runs when no -loadsched is
// given: a 3x burst two reconfiguration intervals in, lasting four intervals
// (aligned to the windowed-stats boundaries so phase pooling is exact).
func DefaultFig7Schedule(cfg sim.Config) workload.ScheduleSpec {
	w := transientWindowCycles(cfg)
	return workload.ScheduleSpec{
		Kind:           workload.SchedBurst,
		AtCycle:        2 * w,
		DurationCycles: 4 * w,
		Mult:           3,
	}
}

// transientWindowCycles is the latency-window width the transient
// experiments record at: one reconfiguration interval, so each window shows
// the tail the policy produced between two consecutive Reconfigure calls.
func transientWindowCycles(cfg sim.Config) uint64 {
	return cfg.ReconfigIntervalCycles
}

// transientLCInstances and the batch set fix the mix the transient
// experiments run: two specjbb instances (pooled tails, as in the paper's
// per-mix metric) against three cache-hungry batch apps.
const transientLCInstances = 2

func transientBatchNames() []string { return []string{"mcf", "libquantum", "soplex"} }

// transientJob is the transient mix under one scheme with the given
// schedule; callers window its request records. Every run derives its seeds
// from scale.Seed only, so a fixed seed is bit-identical at any parallelism.
func transientJob(cfg sim.Config, scale Scale, scheme Scheme, sched workload.ScheduleSpec, base sim.LCBaseline, reqFactor float64) (sim.Job, error) {
	var specs []sim.AppSpec
	for i := 0; i < transientLCInstances; i++ {
		profile := base.Profile
		specs = append(specs, sim.AppSpec{
			LC:               &profile,
			Load:             base.Load,
			MeanInterarrival: base.MeanInterarrival,
			DeadlineCycles:   uint64(base.TailLatency),
			RequestFactor:    reqFactor,
			Seed:             workload.SplitSeed(scale.Seed, uint64(0xF170+i)),
			Sched:            sched,
		})
	}
	for _, name := range transientBatchNames() {
		p, err := workload.BatchByName(name)
		if err != nil {
			return sim.Job{}, err
		}
		batch := p
		specs = append(specs, sim.AppSpec{Batch: &batch, ROIInstructions: scale.BatchROI})
	}
	return sim.Job{Config: schemeConfig(cfg, scheme.Unpartitioned), Specs: specs, NewPolicy: scheme.NewPolicy}, nil
}

// transientBaseline calibrates the latency-critical app the transient mixes
// drive: specjbb at low load, with a doubled request factor so even quick
// scales span enough windows to show the transition.
func transientBaseline(cfg sim.Config, scale Scale) (sim.LCBaseline, float64, error) {
	return serviceBaseline(cfg, scale, "specjbb", scale.requestFactor()*2)
}

// phaseBounds maps a schedule onto [transientStart, transientEnd) window
// indices; ok is false for shapes without a distinct transient phase
// (constant, diurnal, MMPP).
func phaseBounds(sched workload.ScheduleSpec, window uint64, windows int) (int, int, bool) {
	var startCycle, endCycle uint64
	switch sched.Kind {
	case workload.SchedBurst:
		if sched.PeriodCycles > 0 {
			return 0, 0, false // repeating bursts have no single transient phase
		}
		startCycle, endCycle = sched.AtCycle, sched.AtCycle+sched.DurationCycles
	case workload.SchedRamp:
		startCycle, endCycle = sched.AtCycle, sched.AtCycle+sched.DurationCycles
	case workload.SchedFlash:
		// Treat three decay constants as the transient: the multiplier has
		// fallen to within 5% of steady by then.
		startCycle, endCycle = sched.AtCycle, sched.AtCycle+3*sched.DecayCycles
	default:
		return 0, 0, false
	}
	start := int(startCycle / window)
	end := int((endCycle + window - 1) / window)
	if start > windows {
		start = windows
	}
	if end > windows {
		end = windows
	}
	return start, end, start < end
}

// Fig7Transient runs the five standard schemes through one time-varying load
// schedule and reports the pooled per-window tail latencies (p95 and p99 vs
// time) plus a per-phase summary (steady / transient / recovery). Scheme
// runs shard across the worker pool; each is an independent seed-determined
// simulation landing in an index-addressed slot, so the tables are
// bit-identical at any parallelism.
func Fig7Transient(cfg sim.Config, scale Scale, sched workload.ScheduleSpec) ([]Table, error) {
	if err := sched.Validate(); err != nil {
		return nil, err
	}
	base, reqFactor, err := transientBaseline(cfg, scale)
	if err != nil {
		return nil, err
	}
	schemes := StandardSchemes()
	recs := make([][]stats.Series, len(schemes))
	var runs jobList
	for i, scheme := range schemes {
		job, err := transientJob(cfg, scale, scheme, sched, base, reqFactor)
		if err != nil {
			return nil, err
		}
		runs.add(job, func(res sim.Result) error {
			recs[i] = lcRecords(res)
			return nil
		})
	}
	if err := runs.run(scale.Parallelism, scale.Warm); err != nil {
		return nil, err
	}

	window := transientWindowCycles(cfg)
	wins := make([][]stats.WindowStat, len(schemes))
	maxWin := 0
	for i := range schemes {
		wins[i] = stats.WindowStats(window, cfg.TailPercentile, recs[i]...)
		maxWin = max(maxWin, len(wins[i]))
	}
	// Pad shorter runs with empty windows so every column spans maxWin rows.
	for i := range wins {
		for len(wins[i]) < maxWin {
			wins[i] = append(wins[i], stats.WindowStat{})
		}
	}

	var tables []Table
	for _, pct := range []float64{95, 99} {
		t := Table{
			ID:     fmt.Sprintf("fig7-p%.0f", pct),
			Title:  fmt.Sprintf("Tail latency (p%.0f, cycles) vs time under %s, pooled over %d LC instances", pct, sched, transientLCInstances),
			Header: []string{"window", "start_cycles", "requests"},
		}
		for _, scheme := range schemes {
			t.Header = append(t.Header, scheme.Name)
		}
		for w := 0; w < maxWin; w++ {
			// The arrival sequence is schedule- and seed-determined, not
			// scheme-determined, so the request count comes from the first run.
			row := []string{
				fmt.Sprintf("%d", w),
				fmt.Sprintf("%d", uint64(w)*window),
				fmt.Sprintf("%d", wins[0][w].Count),
			}
			for i := range schemes {
				v := wins[i][w].P95
				if pct == 99 {
					v = wins[i][w].P99
				}
				row = append(row, f0(v))
			}
			t.Rows = append(t.Rows, row)
		}
		tables = append(tables, t)
	}

	phase := Table{
		ID:     "fig7-phase",
		Title:  fmt.Sprintf("Per-phase pooled latency under %s", sched),
		Header: []string{"scheme", "phase", "requests", "mean", "p95", "p99"},
	}
	start, end, hasPhases := phaseBounds(sched, window, maxWin)
	for i, scheme := range schemes {
		ranges := []struct {
			name     string
			from, to int
		}{{"all", 0, maxWin}}
		if hasPhases {
			ranges = []struct {
				name     string
				from, to int
			}{
				{"steady", 0, start},
				{"transient", start, end},
				{"recovery", end, maxWin},
			}
		}
		for _, ph := range ranges {
			pooled := stats.PoolRange(window, ph.from, ph.to, recs[i]...)
			phase.Rows = append(phase.Rows, []string{
				scheme.Name, ph.name,
				fmt.Sprintf("%d", pooled.Len()),
				f0(pooled.Mean()),
				f0(pooled.PercentileOrZero(95)),
				f0(pooled.PercentileOrZero(99)),
			})
		}
	}
	tables = append(tables, phase)
	return tables, nil
}

// FlashMagnitudes are the spike multipliers the flash experiment sweeps.
func FlashMagnitudes() []float64 { return []float64{2, 4, 8} }

// FlashRecovery sweeps flash-crowd spikes of increasing magnitude across the
// five standard schemes and summarises, per (magnitude, scheme): the steady
// pooled p95 before the spike, the pooled p95 through the spike (three decay
// constants), the pooled p95 after, and how many windows the tail needed to
// come back within 25% of steady ("-" when it never does inside the run).
// The spike hits at window 4. Every (magnitude, scheme) cell is one straight
// run, and the grid shards across the worker pool with bit-identical results
// at any parallelism.
func FlashRecovery(cfg sim.Config, scale Scale) ([]Table, error) {
	const spikeWindow = 4
	base, reqFactor, err := transientBaseline(cfg, scale)
	if err != nil {
		return nil, err
	}
	window := transientWindowCycles(cfg)
	schemes := StandardSchemes()
	mags := FlashMagnitudes()
	rows := make([][]string, len(mags)*len(schemes))
	var runs jobList
	for i := range rows {
		mag := mags[i/len(schemes)]
		scheme := schemes[i%len(schemes)]
		sched := workload.ScheduleSpec{
			Kind:        workload.SchedFlash,
			AtCycle:     spikeWindow * window,
			Mult:        mag,
			DecayCycles: window,
		}
		job, err := transientJob(cfg, scale, scheme, sched, base, reqFactor)
		if err != nil {
			return nil, err
		}
		runs.add(job, func(res sim.Result) error {
			recs := lcRecords(res)
			perWindow := stats.WindowStats(window, cfg.TailPercentile, recs...)
			wins := len(perWindow)
			start, end, ok := phaseBounds(sched, window, wins)
			if !ok {
				return fmt.Errorf("experiment: flash run too short to contain the spike (%d windows)", wins)
			}
			steady := stats.PoolRange(window, 0, start, recs...)
			spike := stats.PoolRange(window, start, end, recs...)
			post := stats.PoolRange(window, end, wins, recs...)
			steadyP95 := steady.PercentileOrZero(95)
			recovery := "-"
			for w := start; w < wins; w++ {
				if perWindow[w].Count == 0 {
					continue
				}
				if perWindow[w].P95 <= 1.25*steadyP95 {
					recovery = fmt.Sprintf("%d", w-start)
					break
				}
			}
			rows[i] = []string{
				fmt.Sprintf("%g", mag), scheme.Name,
				f0(steadyP95),
				f0(spike.PercentileOrZero(95)),
				f0(post.PercentileOrZero(95)),
				recovery,
			}
			return nil
		})
	}
	if err := runs.run(scale.Parallelism, scale.Warm); err != nil {
		return nil, err
	}

	t := Table{
		ID: "flash",
		Title: fmt.Sprintf("Flash-crowd recovery: spike at window %d, decay %d cycles, pooled p95 per phase (%d LC instances)",
			spikeWindow, window, transientLCInstances),
		Header: []string{"spike_x", "scheme", "steady_p95", "spike_p95", "post_p95", "recovery_windows"},
	}
	t.Rows = rows
	return []Table{t}, nil
}

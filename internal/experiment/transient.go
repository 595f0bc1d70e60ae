package experiment

import (
	"errors"
	"fmt"

	"repro/internal/cache"
	"repro/internal/parallel"
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

// transientRun holds one scheme's (or one sweep point's) windowed mix run.
type transientRun struct {
	scheme string
	res    sim.Result
}

// transientMixSpecs assembles the transient mix's machine configuration and
// application slots for one scheme and schedule. Every run derives its seeds
// from scale.Seed only, so a fixed seed is bit-identical at any parallelism.
func transientMixSpecs(cfg sim.Config, scale Scale, scheme Scheme, sched workload.ScheduleSpec, base sim.LCBaseline, reqFactor float64) (sim.Config, []sim.AppSpec, error) {
	runCfg := cfg
	runCfg.LatencyWindowCycles = transientWindowCycles(cfg)
	if scheme.Unpartitioned {
		runCfg.LLC.Mode = cache.ModeLRU
	}
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
			return sim.Config{}, nil, err
		}
		batch := p
		specs = append(specs, sim.AppSpec{Batch: &batch, ROIInstructions: scale.BatchROI})
	}
	return runCfg, specs, nil
}

// runTransientMix runs the transient mix under one scheme with the given
// schedule, windowed latency recording on.
func runTransientMix(cfg sim.Config, scale Scale, scheme Scheme, sched workload.ScheduleSpec, base sim.LCBaseline, reqFactor float64) (sim.Result, error) {
	runCfg, specs, err := transientMixSpecs(cfg, scale, scheme, sched, base, reqFactor)
	if err != nil {
		return sim.Result{}, err
	}
	return sim.RunMix(runCfg, specs, scheme.NewPolicy())
}

// runTransientMixWarmFork is runTransientMix through the warm-fork engine: a
// sweep over schedules that share a quiescent prefix (flash magnitudes, burst
// intensities) warms each scheme once up to the first rate deviation,
// checkpoints, and forks every sweep point from the snapshot with the
// schedule swapped in. The checkpoint key deliberately excludes the schedule
// — interchangeability up to the warm boundary is exactly what
// RunFromCheckpointWithSchedule verifies per fork, and any fork the engine
// cannot prove safe falls back to a full re-warm, so results are
// byte-identical to runTransientMix either way (pinned by the flash golden
// table digest).
func runTransientMixWarmFork(cfg sim.Config, scale Scale, scheme Scheme, sched workload.ScheduleSpec, base sim.LCBaseline, reqFactor float64) (sim.Result, error) {
	warmCycle := sched.QuiescentUntil()
	if warmCycle == 0 || warmCycle == ^uint64(0) {
		// A schedule modulated from cycle 0 (nothing shareable) or a constant
		// schedule (no sweep to fork): a straight run is the fast path.
		return runTransientMix(cfg, scale, scheme, sched, base, reqFactor)
	}
	// Pause a margin before the first rate deviation: an idle app jumps its
	// clock to its next arrival and draws one arrival ahead, so pausing
	// exactly at the deviation would often consume a draw past it (a draw the
	// swapped schedule would have modulated differently), forcing the
	// fallback re-warm. Eight mean interarrivals plus the scheduler quantum
	// make the overshoot chance negligible (~e^-8) while keeping almost all
	// of the quiescent prefix shared.
	margin := uint64(8*base.MeanInterarrival) + cfg.StepQuantumCycles
	if warmCycle <= margin {
		return runTransientMix(cfg, scale, scheme, sched, base, reqFactor)
	}
	warmCycle -= margin
	runCfg, specs, err := transientMixSpecs(cfg, scale, scheme, sched, base, reqFactor)
	if err != nil {
		return sim.Result{}, err
	}
	key := fmt.Sprintf("transient-warm|%#v|%s|%#v|%v|%d|%v|%d",
		runCfg.PoolIdentity(), scheme.Name, base, reqFactor, scale.BatchROI, scale.Seed, warmCycle)
	cp, err := scale.Warm.Checkpoint(key, func() (*sim.Checkpoint, error) {
		return sim.WarmCheckpoint(runCfg, specs, scheme.NewPolicy(), warmCycle)
	})
	if err != nil {
		return sim.Result{}, err
	}
	res, err := sim.RunFromCheckpointWithSchedule(cp, sched)
	if errors.Is(err, sim.ErrScheduleSwapUnsafe) {
		// The warm prefix consumed a draw past the quiescent boundary
		// (possible when an idle app's clock overshoots the pause): re-warm
		// from cold. Any other error is a real failure and propagates.
		return runTransientMix(cfg, scale, scheme, sched, base, reqFactor)
	}
	return res, err
}

// transientBaseline calibrates the latency-critical app the transient mixes
// drive: specjbb at low load, with a doubled request factor so even quick
// scales span enough windows to show the transition.
func transientBaseline(cfg sim.Config, scale Scale) (sim.LCBaseline, float64, error) {
	profile, err := workload.LCByName("specjbb")
	if err != nil {
		return sim.LCBaseline{}, 0, err
	}
	reqFactor := scale.requestFactor() * 2
	base, err := sim.MeasureLCBaselinePooled(scale.Warm, cfg, profile, profile.TargetLines(), 0.2, reqFactor)
	if err != nil {
		return sim.LCBaseline{}, 0, err
	}
	return base, reqFactor, nil
}

// pooledWindow merges one window's latency samples across all
// latency-critical instances of a run.
func pooledWindow(lcs []sim.AppResult, idx int) *stats.Sample {
	var parts []*stats.Sample
	for _, a := range lcs {
		if idx < len(a.WindowSamples) {
			parts = append(parts, a.WindowSamples[idx])
		}
	}
	return stats.PoolWindows(parts)
}

// pooledRange merges a half-open window range [from, to) across instances.
func pooledRange(lcs []sim.AppResult, from, to int) *stats.Sample {
	var parts []*stats.Sample
	for _, a := range lcs {
		for i := from; i < to && i < len(a.WindowSamples); i++ {
			parts = append(parts, a.WindowSamples[i])
		}
	}
	return stats.PoolWindows(parts)
}

// windowCount returns the longest window series across the run's LC apps.
func windowCount(lcs []sim.AppResult) int {
	n := 0
	for _, a := range lcs {
		if len(a.WindowSamples) > n {
			n = len(a.WindowSamples)
		}
	}
	return n
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
	scale = scale.withPool()
	if err := sched.Validate(); err != nil {
		return nil, err
	}
	base, reqFactor, err := transientBaseline(cfg, scale)
	if err != nil {
		return nil, err
	}
	schemes := StandardSchemes()
	runs := make([]transientRun, len(schemes))
	if err := parallel.For(len(schemes), scale.parallelism(), func(i int) error {
		res, err := runTransientMix(cfg, scale, schemes[i], sched, base, reqFactor)
		if err != nil {
			return err
		}
		runs[i] = transientRun{scheme: schemes[i].Name, res: res}
		return nil
	}); err != nil {
		return nil, err
	}

	window := transientWindowCycles(cfg)
	maxWin := 0
	for _, r := range runs {
		if n := windowCount(r.res.LCResults()); n > maxWin {
			maxWin = n
		}
	}

	// Pool each (scheme, window) once; both percentile tables and the
	// request-count column read from the cache.
	pooled := make([][]*stats.Sample, len(runs))
	for i, r := range runs {
		pooled[i] = make([]*stats.Sample, maxWin)
		for w := 0; w < maxWin; w++ {
			pooled[i][w] = pooledWindow(r.res.LCResults(), w)
		}
	}

	var tables []Table
	for _, pct := range []float64{95, 99} {
		t := Table{
			ID:     fmt.Sprintf("fig7-p%.0f", pct),
			Title:  fmt.Sprintf("Tail latency (p%.0f, cycles) vs time under %s, pooled over %d LC instances", pct, sched, transientLCInstances),
			Header: []string{"window", "start_cycles", "requests"},
		}
		for _, r := range runs {
			t.Header = append(t.Header, r.scheme)
		}
		for w := 0; w < maxWin; w++ {
			// The arrival sequence is schedule- and seed-determined, not
			// scheme-determined, so the request count comes from the first run.
			row := []string{
				fmt.Sprintf("%d", w),
				fmt.Sprintf("%d", uint64(w)*window),
				fmt.Sprintf("%d", pooled[0][w].Len()),
			}
			for i := range runs {
				row = append(row, f0(pooled[i][w].PercentileOrZero(pct)))
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
	for _, r := range runs {
		lcs := r.res.LCResults()
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
			pooled := pooledRange(lcs, ph.from, ph.to)
			phase.Rows = append(phase.Rows, []string{
				r.scheme, ph.name,
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
// The (magnitude, scheme) grid shards across the worker pool with
// bit-identical results at any parallelism.
//
// The sweep exploits that every magnitude's schedule is quiescent until the
// spike: each scheme warms once up to the spike onset and every magnitude
// forks from that snapshot, eliminating the repeated warmup (the schedule
// swap is verified per fork, falling back to a full re-warm if unsafe, so the
// table is byte-identical to re-warming every cell).
func FlashRecovery(cfg sim.Config, scale Scale) ([]Table, error) {
	return FlashRecoveryAt(cfg, scale, 4, FlashMagnitudes())
}

// FlashRecoveryAt is FlashRecovery with the spike window and the magnitude
// sweep exposed, so benchmarks (and tests) can shape the shared warm prefix.
func FlashRecoveryAt(cfg sim.Config, scale Scale, spikeWindow uint64, mags []float64) ([]Table, error) {
	scale = scale.withPool()
	base, reqFactor, err := transientBaseline(cfg, scale)
	if err != nil {
		return nil, err
	}
	window := transientWindowCycles(cfg)
	schemes := StandardSchemes()
	type flashRow struct {
		mag    float64
		scheme string
		cells  []string
	}
	rows := make([]flashRow, len(mags)*len(schemes))
	if err := parallel.For(len(rows), scale.parallelism(), func(i int) error {
		mag := mags[i/len(schemes)]
		scheme := schemes[i%len(schemes)]
		sched := workload.ScheduleSpec{
			Kind:        workload.SchedFlash,
			AtCycle:     spikeWindow * window,
			Mult:        mag,
			DecayCycles: window,
		}
		res, err := runTransientMixWarmFork(cfg, scale, scheme, sched, base, reqFactor)
		if err != nil {
			return err
		}
		lcs := res.LCResults()
		wins := windowCount(lcs)
		start, end, ok := phaseBounds(sched, window, wins)
		if !ok {
			return fmt.Errorf("experiment: flash run too short to contain the spike (%d windows)", wins)
		}
		steady := pooledRange(lcs, 0, start)
		spike := pooledRange(lcs, start, end)
		post := pooledRange(lcs, end, wins)
		steadyP95 := steady.PercentileOrZero(95)
		recovery := "-"
		for w := start; w < wins; w++ {
			pw := pooledWindow(lcs, w)
			if pw.Len() == 0 {
				continue
			}
			if pw.PercentileOrZero(95) <= 1.25*steadyP95 {
				recovery = fmt.Sprintf("%d", w-start)
				break
			}
		}
		rows[i] = flashRow{
			mag:    mag,
			scheme: scheme.Name,
			cells: []string{
				fmt.Sprintf("%g", mag), scheme.Name,
				f0(steadyP95),
				f0(spike.PercentileOrZero(95)),
				f0(post.PercentileOrZero(95)),
				recovery,
			},
		}
		return nil
	}); err != nil {
		return nil, err
	}

	t := Table{
		ID: "flash",
		Title: fmt.Sprintf("Flash-crowd recovery: spike at window %d, decay %d cycles, pooled p95 per phase (%d LC instances)",
			spikeWindow, window, transientLCInstances),
		Header: []string{"spike_x", "scheme", "steady_p95", "spike_p95", "post_p95", "recovery_windows"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, r.cells)
	}
	return []Table{t}, nil
}

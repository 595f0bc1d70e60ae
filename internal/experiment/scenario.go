package experiment

import (
	"fmt"
	"sort"

	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/parallel"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/tracein"
	"repro/internal/workload"
)

// ScenarioScheme is one scheme's outcome of a scenario run.
type ScenarioScheme struct {
	// Scheme echoes the scenario entry.
	Scheme scenario.Scheme
	// PolicyName is the display name of the scheme's policy.
	PolicyName string
	// Sim holds the single-node mix result (nil in cluster mode).
	Sim *sim.Result
	// Cluster holds the cluster result (nil in single-node mode).
	Cluster *cluster.Result
	// PooledLCTail, Degradation and WeightedSpeedup are the single-node
	// summary metrics (degradation is against the isolated pooled tail).
	PooledLCTail, Degradation, WeightedSpeedup float64
	// TailAmplification is the cluster query p95 over the isolated leaf tail.
	TailAmplification float64
	// Windows holds the per-arrival-window tail statistics when the scenario
	// reports windows: query latencies in cluster mode, latencies pooled
	// across every latency-critical instance in single-node mode.
	Windows []stats.WindowStat
}

// ScenarioOutcome is everything a scenario run produced, structured so the
// renderers (ScenarioTables and the HTML/CSV report) need not re-simulate.
type ScenarioOutcome struct {
	// Spec is the scenario that ran.
	Spec scenario.Spec
	// Cfg is the resolved base machine.
	Cfg sim.Config
	// WindowCycles is the resolved report window width (0 = no windows).
	WindowCycles uint64
	// Baselines holds the isolation baseline of each latency-critical entry,
	// index-aligned with Spec.LCApps().
	Baselines []sim.LCBaseline
	// IsolatedPooledTail is the tail of all isolated instance latencies
	// pooled together (single-node mode; 0 in cluster mode).
	IsolatedPooledTail float64
	// BatchBaselineIPC holds the per-slot batch baseline IPCs of the
	// single-node mix (isolated 2 MB runs), in slot order.
	BatchBaselineIPC []float64
	// ClusterSpec echoes the resolved fleet shape (nil in single-node mode);
	// its Nodes carry the first scheme's configuration.
	ClusterSpec *cluster.Spec
	// Schemes holds one outcome per scheme entry, in matrix order.
	Schemes []ScenarioScheme
}

// RunScenario runs a scenario: calibrate each latency-critical entry once,
// then run every scheme of the matrix over the same plan. workers bounds
// parallel simulations: each phase is one flat job list — every baseline,
// then every scheme run (single-node) or every (scheme, node) simulation
// (cluster.RunAll) — landing in index-addressed slots, so results are
// bit-identical at any workers value. A nil pool disables warm-state reuse.
//
// When rec is non-nil every scheme run records its simulator events into it
// — one trace pid per scheme in single-node mode, one per (scheme, node) in
// cluster mode, each named for the viewer. Calibration and baseline runs are
// never traced (they are shared warm-pool state, not part of any scheme's
// story). Tracing is observational only: outcomes are bit-identical with rec
// nil or not.
func RunScenario(spec scenario.Spec, workers int, pool *sim.WarmPool, rec *trace.Recorder) (*ScenarioOutcome, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if workers < 1 {
		workers = 1
	}
	cfg := spec.BaseConfig()
	out := &ScenarioOutcome{Spec: spec, Cfg: cfg, WindowCycles: spec.WindowCycles(cfg)}
	schemes, err := spec.ResolvedSchemes()
	if err != nil {
		return nil, err
	}
	reqFactor := spec.RequestFactorOrDefault()
	lcApps := spec.LCApps()
	for _, a := range lcApps {
		profile, err := workload.LCByName(a.LC)
		if err != nil {
			return nil, err
		}
		base, err := sim.MeasureLCBaselinePooled(pool, cfg, profile, profile.TargetLines(), a.Load, reqFactor)
		if err != nil {
			return nil, err
		}
		out.Baselines = append(out.Baselines, base)
	}
	if spec.IsCluster() {
		err = runScenarioCluster(out, spec, schemes, workers, pool, rec)
	} else {
		err = runScenarioSingle(out, spec, schemes, workers, pool, rec)
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// batchSlot is one lowered batch-kind app slot: its timing profile plus, for
// trace entries, the replayed address stream.
type batchSlot struct {
	profile workload.BatchProfile
	trace   *workload.TraceStream
}

// batchSlots expands the scenario's batch and trace entries into app slots,
// in declaration order. Each distinct trace file is opened once — every slot
// of every scheme's run replays a cursor over the same loaded image, which is
// why the traces are never closed here: the mmap'd words must outlive the
// streams, i.e. the whole run. Missing, truncated or malformed trace files
// fail here, at experiment build time, with the offending entry and path in
// the error.
func batchSlots(spec scenario.Spec) ([]batchSlot, error) {
	var out []batchSlot
	traces := make(map[string]*tracein.Trace)
	for i, a := range spec.Apps {
		switch {
		case a.Batch != "":
			profile, err := workload.BatchByName(a.Batch)
			if err != nil {
				return nil, err
			}
			for j := 0; j < a.InstancesOrDefault(); j++ {
				out = append(out, batchSlot{profile: profile})
			}
		case a.Trace != "":
			tr, ok := traces[a.Trace]
			if !ok {
				var err error
				if tr, err = tracein.Open(a.Trace); err != nil {
					return nil, fmt.Errorf("scenario apps[%d]: %w", i, err)
				}
				traces[a.Trace] = tr
			}
			ts, err := tr.MemStream(a.TraceApp)
			if err != nil {
				return nil, fmt.Errorf("scenario apps[%d] (%s): %w", i, a.Trace, err)
			}
			out = append(out, batchSlot{profile: workload.TraceReplayProfile(), trace: ts})
		}
	}
	return out, nil
}

// runScenarioSingle runs the single-node mix under every scheme in two flat
// phases: every baseline (isolation runs on the exact instance seeds of the
// mix, batch baseline IPCs), then one RunMix per scheme.
func runScenarioSingle(out *ScenarioOutcome, spec scenario.Spec, schemes []scenario.ResolvedScheme,
	workers int, pool *sim.WarmPool, rec *trace.Recorder) error {
	cfg := out.Cfg
	cfg.LatencyWindowCycles = out.WindowCycles
	seed := spec.SeedOrDefault()
	reqFactor := spec.RequestFactorOrDefault()

	// Build the mix slots — every LC entry expanded to its instances (global
	// instance indices drive the per-slot seeds), then the batch slots.
	var specs []sim.AppSpec
	for entry, a := range spec.LCApps() {
		profile, err := workload.LCByName(a.LC)
		if err != nil {
			return err
		}
		base := out.Baselines[entry]
		sched, err := a.ScheduleSpec()
		if err != nil {
			return err
		}
		for i := 0; i < a.InstancesOrDefault(); i++ {
			specs = append(specs, sim.AppSpec{
				LC: &profile, Load: a.Load, MeanInterarrival: base.MeanInterarrival,
				DeadlineCycles: uint64(base.TailLatency), RequestFactor: reqFactor,
				Seed: workload.SplitSeed(seed, uint64(1000+len(specs))), Sched: sched,
			})
		}
	}
	batches, err := batchSlots(spec)
	if err != nil {
		return err
	}

	// The baselines are one flat job list: the isolated run of every LC
	// instance on its mix seed, then every batch slot's baseline IPC. Trace
	// slots normalise against the stand-in profile's synthetic baseline (a
	// fixed, deterministic reference): the warm pool memoises baselines by
	// profile, and two different recordings sharing the trace-replay profile
	// must not collide in it.
	isoRuns := make([]sim.Result, len(specs))
	out.BatchBaselineIPC = make([]float64, len(batches))
	if err := parallel.For(len(isoRuns)+len(batches), workers, func(i int) error {
		var err error
		if i < len(isoRuns) {
			a := specs[i]
			isoRuns[i], err = sim.RunIsolatedLCPooled(pool, cfg, *a.LC, a.LC.TargetLines(), a.MeanInterarrival, reqFactor, a.Seed)
			return err
		}
		p := batches[i-len(isoRuns)].profile
		out.BatchBaselineIPC[i-len(isoRuns)], err = sim.MeasureBatchBaselineIPCPooled(pool, cfg, p, sim.LinesFor2MB, p.ROIInstructions)
		return err
	}); err != nil {
		return err
	}
	pooledBase := stats.NewSample(256)
	for _, iso := range isoRuns {
		pooledBase.AddAll(iso.LCResults()[0].Latencies.Values())
	}
	baseTail, err := pooledBase.TailMean(cfg.TailPercentile)
	if err != nil {
		return err
	}
	out.IsolatedPooledTail = baseTail
	for i := range batches {
		specs = append(specs, sim.AppSpec{Batch: &batches[i].profile, Trace: batches[i].trace})
	}

	out.Schemes = make([]ScenarioScheme, len(schemes))
	return parallel.For(len(schemes), workers, func(i int) error {
		rs := schemes[i]
		runCfg := cfg
		if rec != nil {
			rec.SetPIDName(int32(i), "scheme "+rs.Scheme.Name)
			runCfg.Trace = rec.NewSink(int32(i))
		}
		if rs.Unpartitioned {
			runCfg.LLC.Mode = cache.ModeLRU
		}
		res, err := sim.RunMix(runCfg, specs, rs.NewPolicy())
		if err != nil {
			return fmt.Errorf("scheme %s: %w", rs.Scheme.Name, err)
		}
		ws, err := res.WeightedSpeedup(out.BatchBaselineIPC)
		if err != nil {
			return err
		}
		sc := ScenarioScheme{
			Scheme:          rs.Scheme,
			PolicyName:      rs.NewPolicy().Name(),
			Sim:             &res,
			PooledLCTail:    res.PooledLCTail(cfg.TailPercentile),
			WeightedSpeedup: ws,
		}
		if baseTail > 0 {
			sc.Degradation = sc.PooledLCTail / baseTail
		}
		if out.WindowCycles > 0 {
			sc.Windows = pooledLCWindowStats(res, out.WindowCycles, spec.TailPercentileOrDefault())
		}
		out.Schemes[i] = sc
		return nil
	})
}

// runScenarioCluster runs the fleet under every scheme. The fleet shape (the
// plan's seeds, sizes and fault plan) is scheme-independent; only each node's
// cache mode and policy differ, so every scheme replays the identical query
// plan.
func runScenarioCluster(out *ScenarioOutcome, spec scenario.Spec, schemes []scenario.ResolvedScheme,
	workers int, pool *sim.WarmPool, rec *trace.Recorder) error {
	cfg := out.Cfg
	seed := spec.SeedOrDefault()
	reqFactor := spec.RequestFactorOrDefault()
	c := spec.Cluster
	lcApp := spec.LCApps()[0]
	profile, err := workload.LCByName(lcApp.LC)
	if err != nil {
		return err
	}
	base := out.Baselines[0]
	sched, err := lcApp.ScheduleSpec()
	if err != nil {
		return err
	}
	batches, err := batchSlots(spec)
	if err != nil {
		return err
	}

	buildSpec := func(rs scenario.ResolvedScheme, schemeIdx int) cluster.Spec {
		nodes := make([]cluster.NodeSpec, c.Nodes)
		for i := range nodes {
			nodeCfg := cfg
			if rec != nil {
				// One trace row per (scheme, node); the pid packs both so a
				// matrix's schemes stay distinguishable in one export.
				pid := int32(schemeIdx)<<10 | int32(i)
				rec.SetPIDName(pid, fmt.Sprintf("scheme %s node %d", rs.Scheme.Name, i))
				nodeCfg.Trace = rec.NewSink(pid)
			}
			if rs.Unpartitioned {
				nodeCfg.LLC.Mode = cache.ModeLRU
			}
			nodeCfg.LLC.Lines = uint64(spec.NodeLLCMB(i) * workload.LinesPerMB)
			nodeCfg.Seed = workload.SplitSeed(seed, 0xD0+uint64(i))
			// The cluster aggregator windows query and leaf latencies itself
			// from the plan; per-node windowed recording would duplicate it.
			nodeCfg.LatencyWindowCycles = 0
			node := cluster.NodeSpec{
				Config: nodeCfg,
				LC: sim.AppSpec{
					LC:               &profile,
					Load:             lcApp.Load,
					MeanInterarrival: base.MeanInterarrival,
					DeadlineCycles:   uint64(base.TailLatency),
					Seed:             workload.SplitSeed(seed, 3000+uint64(i)),
				},
				Weight:    spec.NodeWeight(i),
				NewPolicy: rs.NewPolicy,
			}
			for b := range batches {
				// Cluster scenarios hold no trace slots (scenario validation
				// rejects them), so every slot here is a plain profile.
				node.Batch = append(node.Batch, sim.AppSpec{Batch: &batches[b].profile})
			}
			nodes[i] = node
		}
		cl := cluster.Spec{
			Nodes:            nodes,
			Fanout:           c.FanoutOrDefault(),
			Quorum:           c.Quorum,
			Balancer:         c.BalancerKind(),
			Sched:            sched,
			HedgeDelayCycles: uint64(c.Hedge * base.TailLatency),
			Seed:             seed,
			Faults:           spec.ClusterFaults(),
			WindowCycles:     out.WindowCycles,
			TailPercentile:   spec.TailPercentileOrDefault(),
		}
		cl.SizeForPerNodeLoad(cluster.PerNodeRequests(profile.Requests, reqFactor),
			cluster.PerNodeWarmup(profile.WarmupRequests, reqFactor), base.MeanInterarrival)
		return cl
	}

	// Every spec is built here, serially (building names the trace pids); the
	// whole (scheme x node) matrix is then one flat cluster.RunAll job list.
	specs := make([]cluster.Spec, len(schemes))
	keys := make([]string, len(schemes))
	for i, rs := range schemes {
		specs[i], keys[i] = buildSpec(rs, i), rs.Key
	}
	first := specs[0]
	out.ClusterSpec = &first
	results, err := cluster.RunAll(specs, keys, workers, pool)
	if err != nil {
		return fmt.Errorf("scheme %w", err)
	}
	out.Schemes = make([]ScenarioScheme, len(schemes))
	for i, rs := range schemes {
		res := &results[i]
		sc := ScenarioScheme{Scheme: rs.Scheme, PolicyName: rs.NewPolicy().Name(), Cluster: res, Windows: res.Windows}
		if base.TailLatency > 0 {
			sc.TailAmplification = res.P95 / base.TailLatency
		}
		out.Schemes[i] = sc
	}
	return nil
}

// pooledLCWindowStats pools the per-window latency samples of every
// latency-critical instance and summarises each window — the single-node
// counterpart of the cluster's query windows, and the per-window series of
// fig7 and flash.
func pooledLCWindowStats(res sim.Result, width uint64, tailPct float64) []stats.WindowStat {
	lcs := res.LCResults()
	n := 0
	for _, a := range lcs {
		n = max(n, len(a.WindowSamples))
	}
	out := make([]stats.WindowStat, n)
	for w := range out {
		pooled := pooledRange(lcs, w, w+1)
		st := stats.WindowStat{
			Index:      uint64(w),
			StartCycle: uint64(w) * width,
			EndCycle:   uint64(w+1) * width,
			Count:      uint64(pooled.Len()),
		}
		if pooled.Len() > 0 {
			st.Mean = pooled.Mean()
			st.P95 = pooled.PercentileOrZero(95)
			st.P99 = pooled.PercentileOrZero(99)
			if tm, err := pooled.TailMean(tailPct); err == nil {
				st.TailMean = tm
			}
		}
		out[w] = st
	}
	return out
}

// WindowFaults lists the fault-plan entries active during [start, end) — the
// annotations the per-window report attaches to fault windows. Restarts are
// instantaneous events and annotate the window containing their cycle.
func WindowFaults(spec scenario.Spec, start, end uint64) []string {
	var out []string
	for _, f := range spec.Faults {
		var active bool
		switch cluster.FaultKind(f.Kind) {
		case cluster.FaultRestart:
			active = f.AtCycle >= start && f.AtCycle < end
		default:
			active = f.AtCycle < end && f.AtCycle+f.DurationCycles > start
		}
		if active {
			out = append(out, fmt.Sprintf("node%d:%s", f.Node, f.Kind))
		}
	}
	sort.Strings(out)
	return out
}

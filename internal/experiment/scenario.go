package experiment

import (
	"fmt"
	"sort"

	"repro/internal/cluster"
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
// then run every scheme of the matrix over the same plan, as one job list
// per dependency phase on workers goroutines (<= 0 = GOMAXPROCS): the
// calibrations, the baselines, then every scheme run or (cluster.RunAll)
// every (scheme, node) simulation. Results are bit-identical at any workers
// value. A nil pool disables warm-state reuse.
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
	cfg := spec.BaseConfig()
	out := &ScenarioOutcome{Spec: spec, Cfg: cfg, WindowCycles: spec.WindowCycles(cfg)}
	schemes, err := spec.ResolvedSchemes()
	if err != nil {
		return nil, err
	}
	var targets []sim.LCBaseline
	for _, a := range spec.LCApps() {
		profile, err := workload.LCByName(a.LC)
		if err != nil {
			return nil, err
		}
		targets = append(targets, sim.LCBaseline{Profile: profile, Load: a.Load})
	}
	if spec.IsCluster() {
		err = runScenarioCluster(out, spec, schemes, targets, workers, pool, rec)
	} else {
		err = runScenarioSingle(out, spec, schemes, targets, workers, pool, rec)
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

// runScenarioSingle runs the single-node mix under every scheme in three
// job lists: every calibration and batch slot's baseline IPC, then every
// load baseline and the isolated run of every LC instance on its mix seed,
// then one run per scheme.
func runScenarioSingle(out *ScenarioOutcome, spec scenario.Spec, schemes []scenario.ResolvedScheme,
	targets []sim.LCBaseline, workers int, pool *sim.WarmPool, rec *trace.Recorder) error {
	cfg := out.Cfg
	seed := spec.SeedOrDefault()
	reqFactor := spec.RequestFactorOrDefault()
	batches, err := batchSlots(spec)
	if err != nil {
		return err
	}

	b := &lcBaselines{cfg, reqFactor, targets}
	var calib, isolated jobList
	b.calibrate(&calib)
	// Trace slots normalise against the stand-in profile's synthetic
	// baseline (a fixed, deterministic reference): the warm pool memoises
	// baselines by profile, and two different recordings sharing the
	// trace-replay profile must not collide in it.
	out.BatchBaselineIPC = make([]float64, len(batches))
	for i := range batches {
		p := batches[i].profile
		calib.add(sim.BatchBaselineJob(cfg, p, sim.LinesFor2MB, p.ROIInstructions), func(res sim.Result) error {
			out.BatchBaselineIPC[i] = res.Apps[0].IPC
			return nil
		})
	}
	if err := calib.run(workers, pool); err != nil {
		return err
	}

	// Build the mix slots — every LC entry expanded to its instances (global
	// instance indices drive the per-slot seeds), then the batch slots — and
	// run each LC slot alone on its seed beside the load baselines.
	if err := b.measure(&isolated); err != nil {
		return err
	}
	var specs []sim.AppSpec
	var entries []int
	var lats []*stats.Sample
	for entry, a := range spec.LCApps() {
		sched, err := a.ScheduleSpec()
		if err != nil {
			return err
		}
		for range a.InstancesOrDefault() {
			k := len(specs)
			lc := sim.AppSpec{
				LC: &b.out[entry].Profile, Load: a.Load, MeanInterarrival: b.out[entry].MeanInterarrival,
				RequestFactor: reqFactor, Seed: workload.SplitSeed(seed, uint64(1000+k)), Sched: sched,
			}
			specs, entries, lats = append(specs, lc), append(entries, entry), append(lats, nil)
			isolated.add(sim.IsolatedLCJob(cfg, *lc.LC, 0, lc.MeanInterarrival, reqFactor, lc.Seed), func(res sim.Result) error {
				lats[k] = res.Apps[0].Latencies
				return nil
			})
		}
	}
	if err := isolated.run(workers, pool); err != nil {
		return err
	}
	out.Baselines = b.out
	pooledBase := stats.NewSample(256)
	for i, lat := range lats {
		pooledBase.AddAll(lat.Values())
		specs[i].DeadlineCycles = uint64(b.out[entries[i]].TailLatency)
	}
	baseTail, err := pooledBase.TailMean(cfg.TailPercentile)
	if err != nil {
		return err
	}
	out.IsolatedPooledTail = baseTail
	for i := range batches {
		specs = append(specs, sim.AppSpec{Batch: &batches[i].profile, Trace: batches[i].trace})
	}

	jobs := make([]sim.Job, len(schemes))
	for i, rs := range schemes {
		runCfg := schemeConfig(cfg, rs.Unpartitioned)
		if rec != nil {
			rec.SetPIDName(int32(i), "scheme "+rs.Scheme.Name)
			runCfg.Trace = rec.NewSink(int32(i))
		}
		jobs[i] = sim.Job{Config: runCfg, Specs: specs, NewPolicy: rs.NewPolicy}
	}
	out.Schemes = make([]ScenarioScheme, len(schemes))
	return sim.RunJobs(jobs, workers, pool, func(i int, res sim.Result, err error) error {
		rs := schemes[i]
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
			sc.Windows = stats.WindowStats(out.WindowCycles, spec.TailPercentileOrDefault(), lcRecords(res)...)
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
	targets []sim.LCBaseline, workers int, pool *sim.WarmPool, rec *trace.Recorder) error {
	cfg := out.Cfg
	seed := spec.SeedOrDefault()
	reqFactor := spec.RequestFactorOrDefault()
	c := spec.Cluster
	lcApp := spec.LCApps()[0]
	var err error
	if out.Baselines, err = measureBaselines(cfg, targets, reqFactor, workers, pool); err != nil {
		return err
	}
	base := out.Baselines[0]
	profile := base.Profile
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
			nodeCfg = schemeConfig(nodeCfg, rs.Unpartitioned)
			nodeCfg.LLC.Lines = uint64(spec.NodeLLCMB(i) * workload.LinesPerMB)
			nodeCfg.Seed = workload.SplitSeed(seed, 0xD0+uint64(i))
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
		sc := ScenarioScheme{Scheme: rs.Scheme, PolicyName: rs.NewPolicy().Name(), Cluster: res}
		if out.WindowCycles > 0 {
			sc.Windows = stats.WindowStats(out.WindowCycles, spec.TailPercentileOrDefault(), res.Record())
		}
		if base.TailLatency > 0 {
			sc.TailAmplification = res.P95 / base.TailLatency
		}
		out.Schemes[i] = sc
	}
	return nil
}

// lcRecords returns the request record of every latency-critical instance of
// a run: pooled by stats.WindowStats and stats.PoolRange, they give the
// single-node counterpart of the cluster's query windows, and the per-window
// series and phases of fig7 and flash.
func lcRecords(res sim.Result) []stats.Series {
	var out []stats.Series
	for _, a := range res.LCResults() {
		out = append(out, a.Record())
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

package main

import (
	"fmt"
	"path/filepath"
	"runtime"

	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/monitor"
	"repro/internal/policy"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/tracein"
	"repro/internal/workload"
)

// The ledger times calls into each layer's public functions from outside the
// program, every call (or batch of calls) inside a span. Inputs are fixed —
// sim-large-mix's for the simulator stack, a scaled copy of live-qos for the
// cache — so a layer's number means the same thing whichever workload's
// traced run hosts the ledger. Each layer is fed recorded inputs on a fresh
// structure, which gives it a "without the rest" number.

type ledger struct {
	e    *env
	tr   *tracer
	root int
	out  []metricValue
}

func runLedger(e *env, tr *tracer) ([]metricValue, error) {
	l := &ledger{e: e, tr: tr, root: tr.begin("bench.ledger", 0)}
	e.tr = tr
	for _, probe := range []func() error{
		l.simRuns, l.simCheckpoints, l.simStructures, l.sweeps, l.scenarios, l.traces,
		l.liveOps, l.liveSidecars, l.liveReplay, l.references,
	} {
		if err := probe(); err != nil {
			return nil, err
		}
	}
	tr.end(l.root, 0)
	return l.out, nil
}

// put reports a per-layer metric as the median of its samples.
func (l *ledger) put(name string, samples ...float64) {
	l.out = append(l.out, medianOf(perLayer, name, samples...))
}

// seconds times fn inside a span named for the layer call it makes.
func (l *ledger) seconds(span string, ops int, fn func()) float64 {
	return l.tr.do(span, l.root, ops, fn).Seconds()
}

// batches is how many timed batches a per-call probe reports a median over.
const batches = 5

// perCall times batches of n calls (fn makes the n calls; the clock is read
// once per batch, at least 4096 calls apart) and returns ns per call for
// each batch.
func (l *ledger) perCall(span string, n int, fn func(batch int)) []float64 {
	out := make([]float64, batches)
	for b := range out {
		out[b] = l.seconds(span, n, func() { fn(b) }) * 1e9 / float64(n)
	}
	return out
}

// sink keeps results alive so the compiler cannot drop a measured call.
var sink uint64

// simRuns: one full large-mix run, strictly serial and at auto width.
func (l *ledger) simRuns() error {
	cfg, specs, err := largeMixInputs(l.e.sz, l.e.seed)
	if err != nil {
		return err
	}
	serialCfg := cfg
	serialCfg.IntraParallel = 1
	tracedCfg := serialCfg
	tracedCfg.Trace = trace.NewRecorder(0).NewSink(1)
	var serial, auto, traced []float64
	var kinstr float64
	var want string
	run := func(span string, c sim.Config) (float64, error) {
		var res sim.Result
		var dig string
		var err error
		s := l.seconds(span, 1, func() { res, dig, err = runLargeMix(c, specs) })
		if err != nil {
			return 0, err
		}
		if want == "" {
			want, kinstr = dig, kiloInstructions(res)
		}
		l.e.check(dig == want, "ledger: %s digest %s differs from serial %s", span, dig, want)
		return s, nil
	}
	for i := 0; i < 3; i++ {
		for _, v := range []struct {
			span string
			cfg  sim.Config
			into *[]float64
		}{{"sim.RunMix/serial", serialCfg, &serial}, {"sim.RunMix/auto", cfg, &auto}, {"sim.RunMix/traced", tracedCfg, &traced}} {
			s, err := run(v.span, v.cfg)
			if err != nil {
				return err
			}
			*v.into = append(*v.into, s)
		}
	}
	l.put("sim.run_serial_s", serial...)
	l.put("sim.run_auto_s", auto...)
	l.put("sim.speculation_ratio", median(serial)/median(auto))
	l.put("sim.ns_per_kinstr", median(serial)*1e9/kinstr)
	l.put("sim.trace_overhead_ratio", median(traced)/median(serial))

	lc := *specs[0].LC
	var calib []float64
	for i := 0; i < 2; i++ {
		calib = append(calib, l.seconds("sim.MeasureLCBaseline", 1, func() {
			_, err = sim.MeasureLCBaseline(cfg, lc, 0, specs[0].Load, specs[0].RequestFactor)
		}))
		if err != nil {
			return err
		}
	}
	l.put("sim.calibrate_s", calib...)
	return nil
}

// simCheckpoints: construction, checkpoint, fork-and-finish and cold restart
// of a large-mix simulator warmed to ledgerWarmCycle.
func (l *ledger) simCheckpoints() error {
	cfg, specs, err := largeMixInputs(l.e.sz, l.e.seed)
	if err != nil {
		return err
	}
	var s *sim.Simulator
	var news []float64
	for i := 0; i < 5; i++ {
		news = append(news, 1e3*l.seconds("sim.New", 1, func() { s, err = sim.New(cfg, specs, core.NewUbikWithSlack(0.05)) }))
		if err != nil {
			return err
		}
	}
	l.put("sim.new_ms", news...)
	if err := s.RunUntil(l.e.sz.ledgerWarmCycle); err != nil {
		return err
	}
	var cp *sim.Checkpoint
	var cps, forks, restarts []float64
	for i := 0; i < 20; i++ {
		cps = append(cps, 1e6*l.seconds("sim.Simulator.Checkpoint", 1, func() { cp, err = s.Checkpoint() }))
		if err != nil {
			return err
		}
	}
	for i := 0; i < 3; i++ {
		forks = append(forks, 1e3*l.seconds("sim.RunFromCheckpoint", 1, func() { _, err = sim.RunFromCheckpoint(cp) }))
		if err != nil {
			return err
		}
	}
	for i := 0; i < 10; i++ {
		restarts = append(restarts, 1e6*l.seconds("sim.Simulator.ColdRestart", 1, func() { err = s.ColdRestart(core.NewUbikWithSlack(0.05)) }))
		if err != nil {
			return err
		}
	}
	l.put("sim.checkpoint_us", cps...)
	l.put("sim.fork_run_ms", forks...)
	l.put("sim.cold_restart_us", restarts...)
	return nil
}

// simStructures records the large mix's four address streams, then replays
// them into a fresh zcache, set-associative array, private hierarchy, UMON
// and the two policies.
func (l *ledger) simStructures() error {
	cfg, specs, err := largeMixInputs(l.e.sz, l.e.seed)
	if err != nil {
		return err
	}
	apps := len(specs)
	streams := make([]*workload.Stream, apps)
	for i, s := range specs {
		seed := workload.SplitSeed(cfg.Seed, uint64(i)+101)
		if s.IsLC() {
			app, err := workload.NewLCApp(*s.LC, i, seed)
			if err != nil {
				return err
			}
			streams[i] = app.Stream()
		} else {
			app, err := workload.NewBatchApp(*s.Batch, i, seed)
			if err != nil {
				return err
			}
			streams[i] = app.Stream()
		}
	}
	n := l.e.sz.probeOps
	// addrs[b] is batch b's recording; access i belongs to app i mod apps.
	addrs := make([][]uint64, batches)
	next := l.perCall("workload.Stream.Next", n, func(b int) {
		rec := make([]uint64, n)
		for i := range rec {
			if i%4096 == 0 {
				for _, s := range streams {
					s.BeginRequest()
				}
			}
			rec[i] = streams[i%apps].Next()
		}
		addrs[b] = rec
	})
	l.put("workload.stream_next_ns", next...)

	ts, err := workload.NewTraceStreamAddrs(addrs[0], uint64(n))
	if err != nil {
		return err
	}
	l.put("workload.tracestream_next_ns", l.perCall("workload.TraceStream.Next", n, func(int) {
		var x uint64
		for i := 0; i < n; i++ {
			x ^= ts.Next()
		}
		sink += x
	})...)

	lines := cfg.LLC.Lines
	share := func(c cache.Cache) {
		for p := 0; p < apps; p++ {
			c.SetPartitionTarget(cache.PartitionID(p), lines/uint64(apps))
		}
	}
	z, err := cache.NewZCache(lines, cfg.LLC.Ways, cfg.LLC.Candidates, cache.ModeVantage, apps)
	if err != nil {
		return err
	}
	share(z)
	l.put("cache.zcache_access_ns", l.perCall("cache.ZCache.Access", n, func(b int) {
		for i, a := range addrs[b] {
			z.Access(a, cache.PartitionID(i%apps), uint64(i))
		}
	})...)
	l.put("cache.zcache_miss_ratio", float64(z.Stats().Misses)/float64(z.Stats().Accesses))

	sa, err := cache.NewSetAssoc(lines, 16, cache.ModeWayPartition, apps)
	if err != nil {
		return err
	}
	share(sa)
	l.put("cache.setassoc_access_ns", l.perCall("cache.SetAssoc.Access", n, func(b int) {
		for i, a := range addrs[b] {
			sa.Access(a, cache.PartitionID(i%apps), uint64(i))
		}
	})...)

	hiers := make([]*cache.Hierarchy, apps)
	for i := range hiers {
		if hiers[i], err = cache.NewHierarchy(cfg.Hierarchy, z); err != nil {
			return err
		}
	}
	served := 0
	l.put("cache.hierarchy_access_ns", l.perCall("cache.Hierarchy.AccessPrivate", n, func(b int) {
		for i, a := range addrs[b] {
			if _, ok := hiers[i%apps].AccessPrivate(a); ok {
				served++
			}
		}
	})...)
	l.put("cache.hierarchy_filter_ratio", float64(served)/float64(n*batches))

	umons := make([]*monitor.UMON, apps)
	for i := range umons {
		if umons[i], err = monitor.NewUMON(lines, cfg.UMONWays, cfg.UMONSampleSets); err != nil {
			return err
		}
	}
	l.put("monitor.umon_access_ns", l.perCall("monitor.UMON.Access", n, func(b int) {
		for i, a := range addrs[b] {
			umons[i%apps].Access(a)
		}
	})...)
	const curves = 200
	l.put("monitor.misscurve_us", l.seconds("monitor.UMON.MissCurve", curves, func() {
		for i := 0; i < curves; i++ {
			sink += uint64(umons[i%apps].MissCurve(monitor.UMONSnapshot{}).Points())
		}
	})*1e6/curves)

	sampled, err := monitor.NewSampledUMON(umons[0], 0.01)
	if err != nil {
		return err
	}
	l.put("monitor.sampled_access_ns", l.perCall("monitor.SampledUMON.Access", n, func(b int) {
		for _, a := range addrs[b] {
			sampled.Access(a)
		}
	})...)

	// A six-app plant view built from the measured curves: two
	// latency-critical apps and four batch apps, as in the paper's mixes.
	view := &policy.PlantView{Lines: lines, EpochCycles: cfg.ReconfigIntervalCycles, Clock: cfg.ReconfigIntervalCycles}
	for i := 0; i < 6; i++ {
		u := umons[i%apps]
		obs := policy.AppObservation{
			LatencyCritical: i < 2, Active: true,
			Curve:       u.MissCurve(monitor.UMONSnapshot{}).Interpolate(cfg.MissCurvePoints),
			MissPenalty: 100, CyclesPerAccessHit: 10,
			CurrentTarget: lines / 6, Occupancy: lines / 6,
			Misses: 1000, Snap: u.Snapshot(),
		}
		if obs.LatencyCritical {
			obs.LCTargetLines, obs.DeadlineCycles, obs.IdleFraction = sim.LinesFor2MB, 50_000, 0.5
		}
		view.Apps = append(view.Apps, obs)
	}
	const reconfigs = 100
	for _, p := range []struct {
		metric, span string
		pol          policy.Policy
	}{
		{"core.ubik_reconfigure_us", "core.Ubik.Reconfigure", core.NewUbikWithSlack(0.05)},
		{"policy.ucp_reconfigure_us", "policy.UCP.Reconfigure", policy.NewUCP()},
	} {
		l.put(p.metric, l.seconds(p.span, reconfigs, func() {
			for i := 0; i < reconfigs; i++ {
				view.Clock += view.EpochCycles
				sink += uint64(len(p.pol.Reconfigure(view)))
			}
		})*1e6/reconfigs)
	}
	return nil
}

// sweeps: the first three Table 3 mixes under the five schemes, on a fresh
// pool, on the pool that run filled, and on one worker.
func (l *ledger) sweeps() error {
	e := l.e
	cfg, schemes := sim.DefaultConfig(), experiment.StandardSchemes()
	scale := sweepScale(e.sz, e.nproc)
	mixes, err := experiment.MixesFor(scale)
	if err != nil {
		return err
	}
	mixes = mixes[:min(3, len(mixes))]
	var want string
	run := func(span string, sc experiment.Scale, pool *sim.WarmPool) (float64, error) {
		var recs []experiment.MixRecord
		var err error
		s := l.seconds(span, len(mixes)*len(schemes), func() { recs, err = runSweep(cfg, sc, mixes, schemes, pool) })
		if err != nil {
			return 0, err
		}
		dig, _, _ := sweepFigures(recs)
		if want == "" {
			want = dig
		}
		e.check(dig == want, "ledger: %s digest %s differs from the cold sweep's %s", span, dig, want)
		return s, nil
	}
	pool := sim.NewWarmPool()
	cold, err := run("experiment.Sweep/cold", scale, pool)
	if err != nil {
		return err
	}
	l.put("experiment.pool_results", float64(pool.ResultCount()))
	l.put("experiment.pool_checkpoints", float64(pool.CheckpointCount()))
	warm, err := run("experiment.Sweep/warm", scale, pool)
	if err != nil {
		return err
	}
	one := scale
	one.Parallelism = 1
	serial, err := run("experiment.Sweep/workers1", one, sim.NewWarmPool())
	if err != nil {
		return err
	}
	l.put("experiment.sweep_cold_s", cold)
	l.put("experiment.sweep_warm_s", warm)
	l.put("experiment.warm_reuse_ratio", cold/warm)
	l.put("parallel.scaling", serial/cold)
	return nil
}

// scenarios: parsing the bench scenario, the Ubik fleet alone through
// cluster.Run, and the report renderers.
func (l *ledger) scenarios() error {
	e := l.e
	path := filepath.Join(e.root, clusterScenario)
	var spec scenario.Spec
	var err error
	const parses = 50
	l.put("scenario.parse_us", l.seconds("scenario.ParseFile", parses, func() {
		for i := 0; i < parses && err == nil; i++ {
			spec, err = scenario.ParseFile(path)
		}
	})*1e6/parses)
	if err != nil {
		return err
	}
	spec.RequestFactor = e.sz.ledgerClusterRF
	spec.Schemes = []scenario.Scheme{{Name: "ubik"}}
	out, err := experiment.RunScenario(spec, e.nproc, nil, nil)
	if err != nil {
		return err
	}
	if out.ClusterSpec == nil {
		return fmt.Errorf("%s is not a cluster scenario", clusterScenario)
	}
	var runs []float64
	var res cluster.Result
	for i := 0; i < 3; i++ {
		runs = append(runs, l.seconds("cluster.Run", 1, func() { res, err = cluster.Run(*out.ClusterSpec, e.nproc) }))
		if err != nil {
			return err
		}
		e.check(res.Queries == out.Schemes[0].Cluster.Queries, "ledger: cluster.Run aggregated %d queries, RunScenario %d", res.Queries, out.Schemes[0].Cluster.Queries)
	}
	l.put("cluster.run_s", runs...)
	l.put("cluster.ns_per_query", median(runs)*1e9/float64(res.Queries))
	var reports []float64
	for i := 0; i < 10; i++ {
		reports = append(reports, 1e3*l.seconds("experiment.ScenarioHTML+CSV", 1, func() {
			sink += uint64(len(experiment.ScenarioHTML(out)) + len(experiment.ScenarioCSV(out)))
		}))
	}
	l.put("experiment.report_ms", reports...)
	return nil
}

// traces: generating, mapping and decoding a kv trace, and the simulator's
// event sink.
func (l *ledger) traces() error {
	e := l.e
	n := e.sz.probeOps
	path := filepath.Join(e.tmp, "ledger.ubiktrace")
	var gens, opens []float64
	var err error
	for i := 0; i < 2; i++ {
		var t *tracein.Trace
		gens = append(gens, l.seconds("tracein.GenerateFile", n, func() { t, err = tracein.GenerateFile(path, replayGenSpec(e, n)) }))
		if err != nil {
			return err
		}
		t.Close()
	}
	l.put("tracein.generate_s", gens...)
	var tr *tracein.Trace
	for i := 0; i < 5; i++ {
		if tr != nil {
			tr.Close()
		}
		opens = append(opens, 1e3*l.seconds("tracein.Open", 1, func() { tr, err = tracein.Open(path) }))
		if err != nil {
			return err
		}
	}
	defer tr.Close()
	l.put("tracein.open_ms", opens...)
	l.put("tracein.record_ns", l.perCall("tracein.Trace.Record", n, func(int) {
		var x uint64
		for i := 0; i < n; i++ {
			x ^= tr.Record(i).Key
		}
		sink += x
	})...)
	snk := trace.NewRecorder(0).NewSink(1)
	l.put("trace.record_ns", l.perCall("trace.Sink.Record", n, func(int) {
		for i := 0; i < n; i++ {
			snk.Record(trace.KindQuantum, 0, uint64(i), 1, 2, 3)
		}
	})...)
	return nil
}

// heapAlloc is the live heap after a collection.
func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// mallocs is the cumulative count of heap objects allocated.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

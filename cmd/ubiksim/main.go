// Command ubiksim runs a single workload mix (latency-critical instances plus
// batch applications) under one cache-management scheme and prints per-
// application latency and throughput results, including tail-latency
// degradation against the isolated baseline. With -loadsched the
// latency-critical arrival rate varies over simulated time (bursts, ramps,
// diurnal cycles, flash crowds, MMPP) and per-window tail latencies are
// printed alongside the run-wide numbers.
//
// Example:
//
//	ubiksim -lc specjbb -load 0.2 -instances 3 -batch mcf,libquantum,soplex -scheme ubik -slack 0.05
//	ubiksim -lc specjbb -load 0.2 -loadsched 'burst:at=8e6,dur=8e6,x=3'
//	ubiksim -lc specjbb -load 0.2 -nodes 8 -fanout 4 -balancer p2c -hedge 0.3
//	ubiksim -lc masstree -load 0.2 -tracefile phase.trace -traceapps 2
//	ubiksim -scenario examples/scenarios/flash-crowd-failure.json
//
// With -nodes above 1 the mix becomes a cluster: every node runs one replica
// of the latency-critical app plus the batch set, a deterministic front-end
// splits a global query stream across nodes (each query fans out to -fanout
// nodes and completes at its -quorum-th response), and the reported tail is
// the user-visible query tail.
//
// With -scenario the whole run — machine, mix, fleet, scheme matrix, fault
// plan — comes from a declarative JSON file instead of flags; the flag form
// is a thin builder over the same scenario engine, so a scenario file that
// mirrors a flag set reproduces its output byte for byte.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"repro/internal/cluster"
	"repro/internal/experiment"
	"repro/internal/prof"
	"repro/internal/scenario"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	// run's own defers (profile flushing included) have already executed by
	// the time an error reaches here.
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "ubiksim:", err)
		os.Exit(1)
	}
}

// specFlags are the flags that shape the run; all of them conflict with
// -scenario, which defines the whole run in one file.
var specFlags = []string{
	"lc", "load", "instances", "batch", "scheme", "slack", "requests", "seed",
	"loadsched", "nodes", "fanout", "quorum", "balancer", "hedge",
	"l1kb", "l2kb", "inclusive", "nohier",
	"tracefile", "traceapps",
}

// run is the testable entry point: it parses args, lowers them (or the
// -scenario file) to a scenario spec, runs it, and writes human-readable
// results to stdout. Errors come back to the caller (main maps them to exit
// status 1).
func run(args []string, stdout, stderr io.Writer) (retErr error) {
	fs := flag.NewFlagSet("ubiksim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scenarioPath = fs.String("scenario", "", "run a declarative scenario file (JSON; see examples/scenarios) instead of assembling the run from flags")
		lcName       = fs.String("lc", "specjbb", "latency-critical application (xapian, masstree, moses, shore, specjbb)")
		load         = fs.Float64("load", 0.2, "offered load for the latency-critical app (0,1)")
		instances    = fs.Int("instances", 3, "number of latency-critical instances")
		batchList    = fs.String("batch", "mcf,libquantum,soplex", "comma-separated batch applications")
		schemeName   = fs.String("scheme", "ubik", "management scheme: lru, ucp, onoff, staticlc, ubik")
		slack        = fs.Float64("slack", 0.05, "Ubik tail-latency slack")
		reqFactor    = fs.Float64("requests", 0.25, "request-count scale factor")
		seed         = fs.Uint64("seed", 1, "random seed")
		loadSched    = fs.String("loadsched", "const", "time-varying load schedule for the LC instances (const, burst:at=,dur=,x=[,period=], ramp:dur=,to=[,at=,from=], diurnal:period=[,amp=], flash:at=,x=,decay=, mmpp:x=,on=,off=[,lo=]); non-constant schedules also print per-window tails")
		traceFile    = fs.String("tracefile", "", "replay a recorded mem trace (tracegen -kind mem, or internal/tracein CSV/binary) as the batch set instead of the synthetic -batch applications")
		traceApps    = fs.Int("traceapps", 1, "with -tracefile: how many of the recording's app columns to replay, one batch slot per column (trace_app 0..N-1)")
		parallelism  = fs.Int("parallelism", 0, "workers for the per-instance isolation baselines and per-node cluster simulations (0 = GOMAXPROCS); results are identical at any setting")
		nodes        = fs.Int("nodes", 1, "cluster size: replica nodes, one latency-critical replica plus the batch set each (1 = plain single-node mix)")
		fanout       = fs.Int("fanout", 1, "cluster fan-out: nodes each query touches; the query completes at its quorum-th response")
		quorum       = fs.Int("quorum", 0, "cluster quorum: leaf responses that complete a query (0 = fanout, i.e. wait for the slowest leaf)")
		balancer     = fs.String("balancer", "rr", "cluster balancer: rr, random, weighted, p2c")
		hedge        = fs.Float64("hedge", 0, "cluster hedging: issue one eager duplicate per query to a spare node after this fraction of the deadline (0 disables)")
		l1KB         = fs.Float64("l1kb", 32, "private L1 size in model KB (0 disables the level)")
		l2KB         = fs.Float64("l2kb", 256, "private L2 size in model KB (0 disables the level)")
		inclusive    = fs.Bool("inclusive", false, "make the private L2 inclusive of L1 (evictions back-invalidate)")
		noHier       = fs.Bool("nohier", false, "disable the private L1/L2 levels entirely (flat pre-hierarchy LLC)")
		cpuProfile   = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile   = fs.String("memprofile", "", "write a heap profile to this file at exit")
		tracePath    = fs.String("trace", "", "write a Chrome trace-event JSON file (open in chrome://tracing or ui.perfetto.dev) recording scheduler quanta, reconfigurations, fault activations and cold restarts of every scheme run; recording is observational, results are identical with or without it")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // usage already printed; asking for help is not a failure
		}
		return fmt.Errorf("invalid arguments (details above)") // the FlagSet already reported specifics
	}
	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer func() {
		// A truncated profile must fail the run, but never mask a run error.
		if perr := stopProf(); retErr == nil {
			retErr = perr
		}
	}()
	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	workers := *parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	var spec scenario.Spec
	if *scenarioPath != "" {
		for _, f := range specFlags {
			if explicit[f] {
				return fmt.Errorf("-%s conflicts with -scenario: the scenario file defines the whole run (drop -%s or edit %s)", f, f, *scenarioPath)
			}
		}
		var err error
		spec, err = scenario.ParseFile(*scenarioPath)
		if err != nil {
			return err
		}
	} else {
		if err := validateClusterFlags(*nodes, *fanout, *quorum, *balancer, *hedge, explicit); err != nil {
			return err
		}
		if err := validateTraceFlags(*traceFile, *traceApps, *nodes, explicit); err != nil {
			return err
		}
		var err error
		spec, err = specFromFlags(flagSpec{
			lc: *lcName, load: *load, instances: *instances, batch: *batchList,
			scheme: *schemeName, slack: *slack, reqFactor: *reqFactor, seed: *seed,
			loadSched: *loadSched, nodes: *nodes, fanout: *fanout, quorum: *quorum,
			balancer: *balancer, hedge: *hedge,
			l1KB: *l1KB, l2KB: *l2KB, inclusive: *inclusive, noHier: *noHier,
			traceFile: *traceFile, traceApps: *traceApps,
		})
		if err != nil {
			return err
		}
	}

	var rec *trace.Recorder
	if *tracePath != "" {
		rec = trace.NewRecorder(0)
	}
	progress := func(format string, a ...any) { fmt.Fprintf(stdout, format, a...) }
	// No warm pool: a single invocation runs each calibration/isolation exactly
	// once (per-seed keys never repeat), so a pool could never hit.
	out, err := experiment.RunScenarioTraced(spec, workers, nil, progress, rec)
	if err != nil {
		return err
	}
	printOutcome(stdout, out)
	if rec != nil {
		if err := rec.WriteFile(*tracePath); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\ntrace: %d events written to %s (%d oldest dropped by ring wrap)\n", rec.Len(), *tracePath, rec.Dropped())
	}
	return nil
}

// flagSpec carries the flag values specFromFlags lowers to a scenario.
type flagSpec struct {
	lc                    string
	load                  float64
	instances             int
	batch                 string
	scheme                string
	slack                 float64
	reqFactor             float64
	seed                  uint64
	loadSched             string
	nodes, fanout, quorum int
	balancer              string
	hedge                 float64
	l1KB, l2KB            float64
	inclusive, noHier     bool
	traceFile             string
	traceApps             int
}

// specFromFlags lowers the flag form to the same scenario spec a file would
// declare — the flags are a thin builder over the scenario engine, so the two
// entry points share every line of run wiring.
func specFromFlags(f flagSpec) (scenario.Spec, error) {
	spec := scenario.Spec{
		Version:       scenario.Version,
		Name:          "cli",
		Seed:          f.seed,
		RequestFactor: f.reqFactor,
	}
	if f.noHier {
		spec.Machine.Flat = true
	} else {
		// The scenario format reads 0 as "default" and negative as "level
		// disabled"; the flags read 0 as "disabled" with the default in the
		// flag's own default value.
		spec.Machine.L1KB = f.l1KB
		if f.l1KB == 0 {
			spec.Machine.L1KB = -1
		}
		spec.Machine.L2KB = f.l2KB
		if f.l2KB == 0 {
			spec.Machine.L2KB = -1
		}
		spec.Machine.InclusiveL2 = f.inclusive
	}
	lcApp := scenario.App{LC: f.lc, Load: f.load}
	sched, err := workload.ParseSchedule(f.loadSched)
	if err != nil {
		return scenario.Spec{}, err
	}
	if !sched.IsConstant() {
		lcApp.Sched = f.loadSched
	}
	if f.nodes > 1 {
		spec.Cluster = &scenario.Cluster{
			Nodes: f.nodes, Fanout: f.fanout, Quorum: f.quorum,
			Balancer: f.balancer, Hedge: f.hedge,
		}
	} else {
		lcApp.Instances = f.instances
	}
	spec.Apps = append(spec.Apps, lcApp)
	if f.traceFile != "" {
		// The recording replaces the synthetic batch set: one batch slot per
		// replayed app column.
		for k := 0; k < f.traceApps; k++ {
			spec.Apps = append(spec.Apps, scenario.App{Trace: f.traceFile, TraceApp: k})
		}
	} else {
		for _, name := range strings.Split(f.batch, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			spec.Apps = append(spec.Apps, scenario.App{Batch: name})
		}
	}
	sc := scenario.Scheme{Name: f.scheme}
	if strings.ToLower(f.scheme) == "ubik" {
		sc.Slack = f.slack
	}
	spec.Schemes = []scenario.Scheme{sc}
	return spec, spec.Validate()
}

// printOutcome renders a scenario outcome, one block per scheme.
func printOutcome(stdout io.Writer, out *experiment.ScenarioOutcome) {
	for i := range out.Schemes {
		if out.Spec.IsCluster() {
			printClusterScheme(stdout, out, i)
		} else {
			printSingleScheme(stdout, out, i)
		}
	}
}

// printSingleScheme renders one scheme's single-node mix results.
func printSingleScheme(stdout io.Writer, out *experiment.ScenarioOutcome, i int) {
	sc := out.Schemes[i]
	res := sc.Sim
	fmt.Fprintf(stdout, "\n%-12s %-6s %12s %12s %10s %8s %7s %7s\n", "app", "kind", "mean_latency", "tail95", "IPC", "missrate", "l1hit", "l2hit")
	for _, a := range res.Apps {
		kind := "batch"
		if a.LatencyCritical {
			kind = "LC"
		}
		fmt.Fprintf(stdout, "%-12s %-6s %12.0f %12.0f %10.3f %8.3f %7.3f %7.3f\n",
			a.Name, kind, a.MeanLatency, a.TailLatency, a.IPC, a.MissRate, a.L1HitFraction, a.L2HitFraction)
	}
	if len(sc.Windows) > 0 {
		fmt.Fprintf(stdout, "\nper-window pooled LC latency (window = %d cycles):\n", out.WindowCycles)
		fmt.Fprintf(stdout, "%-8s %14s %9s %12s %12s %12s\n", "window", "start_cycles", "requests", "mean", "p95", "p99")
		for _, w := range sc.Windows {
			fmt.Fprintf(stdout, "%-8d %14d %9d %12.0f %12.0f %12.0f\n",
				w.Index, w.StartCycle, w.Count, w.Mean, w.P95, w.P99)
		}
	}
	fmt.Fprintf(stdout, "\npooled LC tail latency:   %.0f cycles\n", sc.PooledLCTail)
	fmt.Fprintf(stdout, "isolated pooled tail:     %.0f cycles\n", out.IsolatedPooledTail)
	fmt.Fprintf(stdout, "tail latency degradation: %.3fx\n", sc.Degradation)
	fmt.Fprintf(stdout, "batch weighted speedup:   %.3fx\n", sc.WeightedSpeedup)
}

// printClusterScheme renders one scheme's cluster results.
func printClusterScheme(stdout io.Writer, out *experiment.ScenarioOutcome, i int) {
	sc := out.Schemes[i]
	res := sc.Cluster
	base := out.Baselines[0]
	fmt.Fprintf(stdout, "\n%-6s %8s %12s %12s %12s %10s %9s\n", "node", "leaves", "leaf_mean", "leaf_p95", "leaf_p99", "lc_ipc", "llc_miss")
	for n, nr := range res.Nodes {
		ipc, miss := 0.0, 0.0
		// A node the fault plan starved of every measured leaf skips its
		// simulation entirely; print its row as zeros.
		if lcs := nr.Sim.LCResults(); len(lcs) > 0 {
			ipc, miss = lcs[0].IPC, lcs[0].MissRate
		}
		fmt.Fprintf(stdout, "%-6d %8d %12.0f %12.0f %12.0f %10.3f %9.3f\n",
			n, nr.Leaves, nr.LeafMean, nr.LeafP95, nr.LeafP99, ipc, miss)
	}
	if len(res.Windows) > 0 {
		fmt.Fprintf(stdout, "\nper-window query latency (window = %d cycles):\n", out.WindowCycles)
		fmt.Fprintf(stdout, "%-8s %14s %9s %12s %12s %12s\n", "window", "start_cycles", "queries", "mean", "p95", "p99")
		for _, w := range res.Windows {
			fmt.Fprintf(stdout, "%-8d %14d %9d %12.0f %12.0f %12.0f\n",
				w.Index, w.StartCycle, w.Count, w.Mean, w.P95, w.P99)
		}
	}
	fmt.Fprintf(stdout, "\ncluster queries:          %d\n", res.Queries)
	fmt.Fprintf(stdout, "query mean latency:       %.0f cycles\n", res.Mean)
	fmt.Fprintf(stdout, "query p95 latency:        %.0f cycles\n", res.P95)
	fmt.Fprintf(stdout, "query p99 latency:        %.0f cycles\n", res.P99)
	if out.ClusterSpec.HedgeDelayCycles > 0 {
		fmt.Fprintf(stdout, "hedge wins:               %d of %d queries\n", res.HedgeWins, res.Queries)
	}
	fmt.Fprintf(stdout, "isolated leaf tail:       %.0f cycles\n", base.TailLatency)
	if base.TailLatency > 0 {
		fmt.Fprintf(stdout, "query tail amplification: %.3fx (query p95 vs isolated leaf tail)\n", sc.TailAmplification)
	}
}

// validateTraceFlags rejects contradictory trace-replay flag combinations up
// front, mirroring validateClusterFlags: every flag that would silently
// re-shape or be displaced by the recording is an explicit error.
func validateTraceFlags(traceFile string, traceApps, nodes int, explicit map[string]bool) error {
	if traceFile == "" {
		if explicit["traceapps"] {
			return fmt.Errorf("-traceapps selects app columns of a -tracefile recording; add -tracefile or drop -traceapps")
		}
		return nil
	}
	if explicit["batch"] {
		return fmt.Errorf("-batch conflicts with -tracefile: the recording replaces the synthetic batch set (drop one)")
	}
	if explicit["loadsched"] {
		return fmt.Errorf("-loadsched conflicts with -tracefile: a recording replays fixed accesses and cannot be re-timed (drop one)")
	}
	if nodes > 1 {
		return fmt.Errorf("-tracefile replay is single-node; drop -nodes or the trace")
	}
	if traceApps < 1 {
		return fmt.Errorf("-traceapps must be at least 1, got %d", traceApps)
	}
	return nil
}

// validateClusterFlags rejects contradictory cluster flag combinations up
// front, with errors that say how to fix them, instead of silently clamping.
func validateClusterFlags(nodes, fanout, quorum int, balancer string, hedge float64, explicit map[string]bool) error {
	if nodes < 1 {
		return fmt.Errorf("-nodes must be at least 1, got %d", nodes)
	}
	if nodes == 1 {
		for _, f := range []string{"fanout", "quorum", "balancer", "hedge"} {
			if explicit[f] {
				return fmt.Errorf("-%s is a cluster flag and would be ignored on a single-node mix; set -nodes above 1 to run a cluster", f)
			}
		}
	}
	if fanout < 1 {
		return fmt.Errorf("-fanout must be at least 1, got %d", fanout)
	}
	if fanout > nodes {
		return fmt.Errorf("-fanout %d exceeds -nodes %d: a query cannot touch more nodes than the cluster has", fanout, nodes)
	}
	if quorum < 0 || quorum > fanout {
		return fmt.Errorf("-quorum %d must be in [1, -fanout %d] (0 means wait for all leaves)", quorum, fanout)
	}
	if hedge < 0 || hedge >= 1 {
		return fmt.Errorf("-hedge must be a deadline fraction in [0,1), got %v", hedge)
	}
	if hedge > 0 {
		if fanout == 1 {
			return fmt.Errorf("hedging with -fanout 1 is just a wider fan-out; use -fanout 2 -quorum 1 instead of -hedge")
		}
		if fanout >= nodes {
			return fmt.Errorf("hedging needs a spare node: -fanout %d already touches all %d nodes", fanout, nodes)
		}
	}
	known := false
	for _, k := range cluster.BalancerKinds() {
		if string(k) == balancer {
			known = true
		}
	}
	if !known {
		return fmt.Errorf("unknown balancer %q (want rr, random, weighted, or p2c)", balancer)
	}
	if nodes > 1 && explicit["instances"] {
		return fmt.Errorf("-instances applies to the single-node mix; a cluster runs exactly one replica per node (drop -instances or -nodes)")
	}
	return nil
}

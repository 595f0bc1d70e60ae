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
	"strings"

	"repro/internal/experiment"
	"repro/internal/scenario"
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
	rf := scenario.RegisterRunFlags(fs,
		0.25, "request-count scale factor",
		"const", "time-varying load schedule for the LC instances (const, burst:at=,dur=,x=[,period=], ramp:dur=,to=[,at=,from=], diurnal:period=[,amp=], flash:at=,x=,decay=, mmpp:x=,on=,off=[,lo=]); non-constant schedules also print per-window tails")
	f := flagSpec{RunFlags: rf}
	fs.StringVar(&f.lc, "lc", "specjbb", "latency-critical application (xapian, masstree, moses, shore, specjbb)")
	fs.Float64Var(&f.load, "load", 0.2, "offered load for the latency-critical app (0,1)")
	fs.IntVar(&f.instances, "instances", 3, "number of latency-critical instances")
	fs.StringVar(&f.batch, "batch", "mcf,libquantum,soplex", "comma-separated batch applications")
	fs.StringVar(&f.scheme, "scheme", "ubik", "management scheme: lru, ucp, onoff, staticlc, ubik")
	fs.Float64Var(&f.slack, "slack", 0.05, "Ubik tail-latency slack")
	fs.StringVar(&f.traceFile, "tracefile", "", "replay a recorded mem trace (tracegen -kind mem, or internal/tracein CSV/binary) as the batch set instead of the synthetic -batch applications")
	fs.IntVar(&f.traceApps, "traceapps", 1, "with -tracefile: how many of the recording's app columns to replay, one batch slot per column (trace_app 0..N-1)")
	fs.IntVar(&f.nodes, "nodes", 1, "cluster size: replica nodes, one latency-critical replica plus the batch set each (1 = plain single-node mix)")
	fs.IntVar(&f.fanout, "fanout", 1, "cluster fan-out: nodes each query touches; the query completes at its quorum-th response")
	fs.IntVar(&f.quorum, "quorum", 0, "cluster quorum: leaf responses that complete a query (0 = fanout, i.e. wait for the slowest leaf)")
	fs.StringVar(&f.balancer, "balancer", "rr", "cluster balancer: rr, random, weighted, p2c")
	fs.Float64Var(&f.hedge, "hedge", 0, "cluster hedging: issue one eager duplicate per query to a spare node after this fraction of the deadline (0 disables)")
	fs.BoolVar(&f.inclusive, "inclusive", false, "make the private L2 inclusive of L1 (evictions back-invalidate)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // usage already printed; asking for help is not a failure
		}
		return fmt.Errorf("invalid arguments (details above)") // the FlagSet already reported specifics
	}
	finishProf, err := rf.Prof.Start()
	if err != nil {
		return err
	}
	defer finishProf(&retErr)

	var spec scenario.Spec
	if *rf.Scenario != "" {
		if err := rf.ScenarioConflict(specFlags...); err != nil {
			return err
		}
		spec, err = scenario.ParseFile(*rf.Scenario)
	} else {
		spec, err = specFromFlags(f)
	}
	if err != nil {
		return err
	}

	rec := rf.Recorder()
	progress := func(format string, a ...any) { fmt.Fprintf(stdout, format, a...) }
	// No warm pool: a single invocation runs each calibration/isolation exactly
	// once (per-seed keys never repeat), so a pool could never hit.
	out, err := experiment.RunScenarioTraced(spec, rf.Workers(), nil, progress, rec)
	if err != nil {
		return err
	}
	printOutcome(stdout, out)
	if rec != nil {
		fmt.Fprintln(stdout)
	}
	return rf.WriteTrace(stdout, rec)
}

// flagSpec carries the flag values specFromFlags lowers to a scenario.
type flagSpec struct {
	*scenario.RunFlags
	lc                    string
	load                  float64
	instances             int
	batch                 string
	scheme                string
	slack                 float64
	nodes, fanout, quorum int
	balancer              string
	hedge                 float64
	inclusive             bool
	traceFile             string
	traceApps             int
}

// flagConflicts are the explicit-flag combinations a scenario spec cannot
// show, because lowering would silently drop the named flag: each row fires
// when one of its flags was given while its condition holds. Every other rule
// (fan-out, quorum, hedge and balancer ranges, trace replay being
// single-node, ...) is spec.Validate's.
var flagConflicts = []struct {
	flags []string
	when  func(f flagSpec) bool
	msg   string // the offending flag's name is the one %s
}{
	{[]string{"fanout", "quorum", "balancer", "hedge"}, func(f flagSpec) bool { return f.nodes == 1 },
		"-%s is a cluster flag and would be ignored on a single-node mix; set -nodes above 1 to run a cluster"},
	{[]string{"instances"}, func(f flagSpec) bool { return f.nodes > 1 },
		"-%s applies to the single-node mix; a cluster runs exactly one replica per node (drop -instances or -nodes)"},
	{[]string{"traceapps"}, func(f flagSpec) bool { return f.traceFile == "" },
		"-%s selects app columns of a -tracefile recording; add -tracefile or drop -traceapps"},
	{[]string{"batch"}, func(f flagSpec) bool { return f.traceFile != "" },
		"-%s conflicts with -tracefile: the recording replaces the synthetic batch set (drop one)"},
	{[]string{"loadsched"}, func(f flagSpec) bool { return f.traceFile != "" },
		"-%s conflicts with -tracefile: a recording replays fixed accesses and cannot be re-timed (drop one)"},
}

// specFromFlags lowers the flag form to the same scenario spec a file would
// declare — the flags are a thin builder over the scenario engine, so the two
// entry points share every line of run wiring.
func specFromFlags(f flagSpec) (scenario.Spec, error) {
	if f.nodes < 1 {
		return scenario.Spec{}, fmt.Errorf("-nodes must be at least 1, got %d", f.nodes)
	}
	if f.traceFile != "" && f.traceApps < 1 {
		return scenario.Spec{}, fmt.Errorf("-traceapps must be at least 1, got %d", f.traceApps)
	}
	explicit := f.Explicit()
	for _, c := range flagConflicts {
		for _, name := range c.flags {
			if explicit[name] && c.when(f) {
				return scenario.Spec{}, fmt.Errorf(c.msg, name)
			}
		}
	}
	spec := scenario.Spec{
		Version:       scenario.Version,
		Name:          "cli",
		Seed:          *f.Seed,
		RequestFactor: *f.Requests,
		Machine:       f.Machine(),
	}
	spec.Machine.InclusiveL2 = f.inclusive && !spec.Machine.Flat
	lcApp := scenario.App{LC: f.lc, Load: f.load}
	sched, err := workload.ParseSchedule(*f.LoadSched)
	if err != nil {
		return scenario.Spec{}, err
	}
	if !sched.IsConstant() {
		lcApp.Sched = *f.LoadSched
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

// Command experiments regenerates the paper's tables and figures on the
// scaled simulator. Each experiment prints one or more text tables whose rows
// correspond to the series plotted in the paper.
//
// Usage:
//
//	experiments -list
//	experiments -exp table3,fig9 -scale quick
//	experiments -exp all -scale default -csv
//	experiments -exp fig7 -loadsched 'burst:at=8e6,dur=8e6,x=3'
//	experiments -exp cluster,hetero -scale quick -json
//	experiments -scenario examples/scenarios/flash-crowd-failure.json -report out/
//	experiments -scenario examples/scenarios/fail-slow.json -validate
//
// With -scenario the binary runs one declarative scenario file (see
// examples/scenarios and DESIGN.md) instead of the paper's experiment tables:
// it prints the scenario's per-scheme summary, per-slot breakdown and
// per-window tails (as text, -csv or -json like any experiment), and -report
// additionally writes a standalone HTML + CSV report into a directory.
// -validate parses and validates the scenario without simulating anything —
// the CI check for shipped scenario files.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"repro/internal/cache"
	"repro/internal/experiment"
	"repro/internal/prof"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	// run's own defers (profile flushing included) have already executed by
	// the time an error reaches here.
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// run is the testable entry point: it parses args, runs the selected
// experiments, and writes their tables to stdout. Errors come back to the
// caller (main maps them to exit status 1).
func run(args []string, stdout, stderr io.Writer) (retErr error) {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scenarioPath = fs.String("scenario", "", "run a declarative scenario file (JSON; see examples/scenarios) instead of the paper experiments")
		reportDir    = fs.String("report", "", "with -scenario: also write a standalone HTML + CSV report into this directory")
		validate     = fs.Bool("validate", false, "with -scenario: parse and validate the file, run nothing")
		expList      = fs.String("exp", "all", "comma-separated experiment ids (table1,table2,fig1a,fig1b,fig2,fig7,flash,fig9,table3,fig10,fig11,fig12,fig13,fig14,cluster,hetero,abl-deboost,abl-bound,utilization) or 'all'")
		scaleName    = fs.String("scale", "quick", "evaluation scale: quick, default, or full")
		seed         = fs.Uint64("seed", 1, "top-level random seed")
		reqOverride  = fs.Float64("requests", 0, "override the scale's request-count factor (0 = scale default)")
		loadSched    = fs.String("loadsched", "", "load schedule for the fig7 transient experiment (default: a 3x burst aligned to the stat windows); see ubiksim -loadsched for the syntax")
		parallelism  = fs.Int("parallelism", 0, "worker pool size for mix sweeps, load sweeps and isolation baselines (0 = GOMAXPROCS); results are identical at any setting")
		csv          = fs.Bool("csv", false, "emit CSV instead of aligned text")
		jsonOut      = fs.Bool("json", false, "emit one JSON array of all result tables instead of aligned text")
		list         = fs.Bool("list", false, "list available experiments and exit")
		l1KB         = fs.Float64("l1kb", 32, "private L1 size in model KB (0 disables the level)")
		l2KB         = fs.Float64("l2kb", 256, "private L2 size in model KB (0 disables the level)")
		noHier       = fs.Bool("nohier", false, "disable the private L1/L2 levels entirely (flat pre-hierarchy LLC)")
		cpuProfile   = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile   = fs.String("memprofile", "", "write a heap profile to this file at exit")
		tracePath    = fs.String("trace", "", "with -scenario: write a Chrome trace-event JSON file recording the scheme runs' simulator events (see ubiksim -trace)")
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
	if *csv && *jsonOut {
		return fmt.Errorf("-csv and -json are mutually exclusive; pick one output format")
	}
	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	if *scenarioPath != "" {
		// Every flag that selects or shapes a paper experiment: the scenario
		// file defines the whole run, so an explicit one would be silently
		// discarded.
		for _, f := range []string{"exp", "loadsched", "scale", "seed", "requests", "l1kb", "l2kb", "nohier", "list"} {
			if explicit[f] {
				return fmt.Errorf("-%s conflicts with -scenario: the scenario file defines the whole run (drop -%s or edit %s)", f, f, *scenarioPath)
			}
		}
		return runScenario(stdout, scenarioArgs{
			path: *scenarioPath, reportDir: *reportDir, validateOnly: *validate,
			parallelism: *parallelism, csv: *csv, jsonOut: *jsonOut, tracePath: *tracePath,
		})
	}
	if *reportDir != "" || *validate {
		return fmt.Errorf("-report and -validate only apply to -scenario runs")
	}
	if *tracePath != "" {
		// The paper experiments fan out over dozens of internal runs with no
		// stable per-run identity to label trace rows with; the scenario
		// engine is the traced path.
		return fmt.Errorf("-trace only applies to -scenario runs")
	}

	if *list {
		fmt.Fprintln(stdout, "table1      workload parameters")
		fmt.Fprintln(stdout, "table2      simulated system configuration")
		fmt.Fprintln(stdout, "fig1a       load-latency curves per LC app")
		fmt.Fprintln(stdout, "fig1b       service-time CDFs per LC app")
		fmt.Fprintln(stdout, "fig2        LLC reuse breakdown at 2MB and 8MB")
		fmt.Fprintln(stdout, "fig7        transient: tail latency vs time through a load burst (-loadsched)")
		fmt.Fprintln(stdout, "flash       transient: flash-crowd recovery sweep across spike magnitudes")
		fmt.Fprintln(stdout, "fig9        tail/speedup distributions for all schemes (also produces table3 and fig10)")
		fmt.Fprintln(stdout, "table3      average weighted speedups per scheme")
		fmt.Fprintln(stdout, "fig10       per-app results, OOO cores")
		fmt.Fprintln(stdout, "fig11       per-app results, in-order cores")
		fmt.Fprintln(stdout, "fig12       Ubik slack sensitivity")
		fmt.Fprintln(stdout, "fig13       partitioning-scheme sensitivity")
		fmt.Fprintln(stdout, "fig14       private L1/L2 hierarchy sensitivity")
		fmt.Fprintln(stdout, "cluster     datacenter: query tail vs fan-out on a 4-node cluster (tail at scale)")
		fmt.Fprintln(stdout, "hetero      datacenter: one straggler node (quarter LLC) vs cluster tail, LRU and Ubik")
		fmt.Fprintln(stdout, "abl-deboost ablation: accurate de-boosting")
		fmt.Fprintln(stdout, "abl-bound   ablation: transient bounds vs exact sums")
		fmt.Fprintln(stdout, "utilization Section 7.1 utilization estimate")
		return nil
	}

	scale, err := scaleByName(*scaleName)
	if err != nil {
		return err
	}
	scale.Seed = *seed
	scale.Parallelism = *parallelism
	if *reqOverride > 0 {
		scale.RequestFactor = *reqOverride
	}
	// One pool for the whole invocation, so experiments selected together
	// (fig7+flash, cluster+hetero, fig1a+fig1b+fig2) share their calibration
	// and baseline runs too.
	scale.Warm = sim.NewWarmPool()
	cfg := sim.DefaultConfig()
	cfg.Seed = *seed
	cfg.Hierarchy = sim.HierarchyForKB(*l1KB, *l2KB, false)
	if *noHier {
		cfg.Hierarchy = cache.HierarchyConfig{}
	}

	sched := experiment.DefaultFig7Schedule(cfg)
	if *loadSched != "" {
		sched, err = workload.ParseSchedule(*loadSched)
		if err != nil {
			return err
		}
	}

	wanted := map[string]bool{}
	for _, e := range strings.Split(*expList, ",") {
		wanted[strings.TrimSpace(e)] = true
	}
	all := wanted["all"]
	want := func(id string) bool { return all || wanted[id] }

	var jsonTables []experiment.Table
	emit := func(tables ...experiment.Table) {
		for _, t := range tables {
			switch {
			case *jsonOut:
				jsonTables = append(jsonTables, t)
			case *csv:
				fmt.Fprintf(stdout, "# %s: %s\n%s\n", t.ID, t.Title, t.CSV())
			default:
				fmt.Fprintln(stdout, t.String())
			}
		}
	}

	if want("table1") {
		emit(experiment.Table1Workloads())
	}
	if want("table2") {
		emit(experiment.Table2System(cfg))
	}
	if want("fig1a") {
		tables, err := experiment.Fig1LoadLatency(cfg, scale)
		if err != nil {
			return err
		}
		emit(tables...)
	}
	if want("fig1b") {
		tables, err := experiment.Fig1ServiceCDF(cfg, scale)
		if err != nil {
			return err
		}
		emit(tables...)
	}
	if want("fig2") {
		tables, err := experiment.Fig2Breakdown(cfg, scale)
		if err != nil {
			return err
		}
		emit(tables...)
	}
	if want("fig7") {
		tables, err := experiment.Fig7Transient(cfg, scale, sched)
		if err != nil {
			return err
		}
		emit(tables...)
	}
	if want("flash") {
		tables, err := experiment.FlashRecovery(cfg, scale)
		if err != nil {
			return err
		}
		emit(tables...)
	}
	if want("fig9") || want("table3") || want("fig10") {
		records, err := experiment.RunMainComparison(cfg, scale)
		if err != nil {
			return err
		}
		if want("fig9") {
			emit(experiment.Fig9Distributions(records)...)
		}
		if want("table3") {
			emit(experiment.Table3Speedups(records))
		}
		if want("fig10") {
			emit(experiment.PerAppTables(records, "fig10", "OOO cores")...)
		}
	}
	if want("fig11") {
		tables, _, err := experiment.Fig11InOrder(cfg, scale)
		if err != nil {
			return err
		}
		emit(tables...)
	}
	if want("fig12") {
		tables, _, err := experiment.Fig12Slack(cfg, scale)
		if err != nil {
			return err
		}
		emit(tables...)
	}
	if want("fig13") {
		tables, err := experiment.Fig13PartScheme(cfg, scale)
		if err != nil {
			return err
		}
		emit(tables...)
	}
	if want("fig14") {
		tables, err := experiment.Fig14HierarchySweep(cfg, scale)
		if err != nil {
			return err
		}
		emit(tables...)
	}
	if want("cluster") {
		tables, err := experiment.ClusterTail(cfg, scale)
		if err != nil {
			return err
		}
		emit(tables...)
	}
	if want("hetero") {
		tables, err := experiment.ClusterHetero(cfg, scale)
		if err != nil {
			return err
		}
		emit(tables...)
	}
	if want("abl-deboost") {
		t, err := experiment.AblationDeboost(cfg, scale)
		if err != nil {
			return err
		}
		emit(t)
	}
	if want("abl-bound") {
		t, err := experiment.AblationTransientBound(cfg, scale)
		if err != nil {
			return err
		}
		emit(t)
	}
	if want("utilization") {
		emit(experiment.UtilizationEstimate(0.2, 3, 6))
	}
	if *jsonOut {
		// One array of every emitted table, machine-readable: the shape
		// BENCH_cluster.json is generated with in CI.
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jsonTables); err != nil {
			return err
		}
	}
	return nil
}

// scenarioArgs carries the -scenario mode flags into runScenario.
type scenarioArgs struct {
	path, reportDir string
	validateOnly    bool
	parallelism     int
	csv, jsonOut    bool
	tracePath       string
}

// runScenario is the -scenario entry point: parse (and maybe just validate)
// the file, run it through the scenario engine, print its tables in the
// selected format, and optionally write the HTML/CSV report.
func runScenario(stdout io.Writer, a scenarioArgs) error {
	spec, err := scenario.ParseFile(a.path)
	if err != nil {
		return err
	}
	if a.validateOnly {
		mode := "single-node"
		if spec.IsCluster() {
			mode = fmt.Sprintf("%d-node cluster", spec.Cluster.Nodes)
		}
		fmt.Fprintf(stdout, "%s: valid (scenario %q, %s, %d app entries, %d schemes, %d faults)\n",
			a.path, spec.Name, mode, len(spec.Apps), len(spec.Schemes), len(spec.Faults))
		return nil
	}
	workers := a.parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var rec *trace.Recorder
	if a.tracePath != "" {
		rec = trace.NewRecorder(0)
	}
	out, err := experiment.RunScenarioTraced(spec, workers, sim.NewWarmPool(), nil, rec)
	if err != nil {
		return err
	}
	tables := experiment.ScenarioTables(out)
	switch {
	case a.jsonOut:
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(tables); err != nil {
			return err
		}
	case a.csv:
		for _, t := range tables {
			fmt.Fprintf(stdout, "# %s: %s\n%s\n", t.ID, t.Title, t.CSV())
		}
	default:
		for _, t := range tables {
			fmt.Fprintln(stdout, t.String())
		}
	}
	if a.reportDir != "" {
		htmlPath, csvPath, err := experiment.WriteScenarioReport(out, a.reportDir)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "report written: %s, %s\n", htmlPath, csvPath)
	}
	if rec != nil {
		if err := rec.WriteFile(a.tracePath); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "trace: %d events written to %s (%d oldest dropped by ring wrap)\n", rec.Len(), a.tracePath, rec.Dropped())
	}
	return nil
}

func scaleByName(name string) (experiment.Scale, error) {
	switch name {
	case "quick":
		return experiment.QuickScale(), nil
	case "default":
		return experiment.DefaultScale(), nil
	case "full":
		return experiment.FullScale(), nil
	default:
		return experiment.Scale{}, fmt.Errorf("unknown scale %q (want quick, default, or full)", name)
	}
}

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
	"strings"
	"sync"

	"repro/internal/experiment"
	"repro/internal/scenario"
	"repro/internal/sim"
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

// env is what every experiment of one invocation runs against.
type env struct {
	cfg   sim.Config
	scale experiment.Scale
	sched workload.ScheduleSpec // the fig7 load schedule
	// mainComparison runs the main scheme comparison once per invocation;
	// fig9, table3 and fig10 are three views of its records.
	mainComparison func() ([]experiment.MixRecord, error)
}

// one adapts a single-table experiment to the registry's run shape.
func one(t experiment.Table, err error) ([]experiment.Table, error) {
	return []experiment.Table{t}, err
}

// fig10ID is both the registry id and the prefix of the per-app table ids.
const fig10ID = "fig10"

// registry is the experiment index: -list, the -exp usage text and dispatch
// are all derived from it, in this order (DESIGN.md §3 carries the same index;
// TestExperimentIndexCannotDrift holds the copies together).
var registry = []struct {
	id, blurb string
	run       func(x *env) ([]experiment.Table, error)
}{
	{"table1", "workload parameters", func(*env) ([]experiment.Table, error) {
		return one(experiment.Table1Workloads(), nil)
	}},
	{"table2", "simulated system configuration", func(x *env) ([]experiment.Table, error) {
		return one(experiment.Table2System(x.cfg), nil)
	}},
	{"fig1a", "load-latency curves per LC app", func(x *env) ([]experiment.Table, error) {
		return experiment.Fig1LoadLatency(x.cfg, x.scale)
	}},
	{"fig1b", "service-time CDFs per LC app", func(x *env) ([]experiment.Table, error) {
		return experiment.Fig1ServiceCDF(x.cfg, x.scale)
	}},
	{"fig2", "LLC reuse breakdown at 2MB and 8MB", func(x *env) ([]experiment.Table, error) {
		return experiment.Fig2Breakdown(x.cfg, x.scale)
	}},
	{"fig7", "transient: tail latency vs time through a load burst (-loadsched)", func(x *env) ([]experiment.Table, error) {
		return experiment.Fig7Transient(x.cfg, x.scale, x.sched)
	}},
	{"flash", "transient: flash-crowd recovery sweep across spike magnitudes", func(x *env) ([]experiment.Table, error) {
		return experiment.FlashRecovery(x.cfg, x.scale)
	}},
	{"fig9", "tail/speedup distributions for all schemes (also produces table3 and fig10)", func(x *env) ([]experiment.Table, error) {
		records, err := x.mainComparison()
		return experiment.Fig9Distributions(records), err
	}},
	{"table3", "average weighted speedups per scheme", func(x *env) ([]experiment.Table, error) {
		records, err := x.mainComparison()
		if err != nil {
			return nil, err
		}
		return one(experiment.Table3Speedups(records), nil)
	}},
	{fig10ID, "per-app results, OOO cores", func(x *env) ([]experiment.Table, error) {
		records, err := x.mainComparison()
		return experiment.PerAppTables(records, fig10ID, "OOO cores"), err
	}},
	{"fig11", "per-app results, in-order cores", func(x *env) ([]experiment.Table, error) {
		tables, _, err := experiment.Fig11InOrder(x.cfg, x.scale)
		return tables, err
	}},
	{"fig12", "Ubik slack sensitivity", func(x *env) ([]experiment.Table, error) {
		tables, _, err := experiment.Fig12Slack(x.cfg, x.scale)
		return tables, err
	}},
	{"fig13", "partitioning-scheme sensitivity", func(x *env) ([]experiment.Table, error) {
		return experiment.Fig13PartScheme(x.cfg, x.scale)
	}},
	{"fig14", "private L1/L2 hierarchy sensitivity", func(x *env) ([]experiment.Table, error) {
		return experiment.Fig14HierarchySweep(x.cfg, x.scale)
	}},
	{"cluster", "datacenter: query tail vs fan-out on a 4-node cluster (tail at scale)", func(x *env) ([]experiment.Table, error) {
		return experiment.ClusterTail(x.cfg, x.scale)
	}},
	{"hetero", "datacenter: one straggler node (quarter LLC) vs cluster tail, LRU and Ubik", func(x *env) ([]experiment.Table, error) {
		return experiment.ClusterHetero(x.cfg, x.scale)
	}},
	{"abl-deboost", "ablation: accurate de-boosting", func(x *env) ([]experiment.Table, error) {
		return one(experiment.AblationDeboost(x.cfg, x.scale))
	}},
	{"abl-bound", "ablation: transient bounds vs exact sums", func(x *env) ([]experiment.Table, error) {
		return one(experiment.AblationTransientBound(x.cfg, x.scale))
	}},
	{"utilization", "Section 7.1 utilization estimate", func(*env) ([]experiment.Table, error) {
		return one(experiment.UtilizationEstimate(0.2, 3, 6), nil)
	}},
}

// expUsage is the -exp help text, listing the registry's ids in order.
func expUsage() string {
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.id
	}
	return "comma-separated experiment ids (" + strings.Join(ids, ",") + ") or 'all'"
}

// run is the testable entry point: it parses args, runs the selected
// experiments, and writes their tables to stdout. Errors come back to the
// caller (main maps them to exit status 1).
func run(args []string, stdout, stderr io.Writer) (retErr error) {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	rf := scenario.RegisterRunFlags(fs,
		0, "override the scale's request-count factor (0 = scale default)",
		"", "load schedule for the fig7 transient experiment (default: a 3x burst aligned to the stat windows); see ubiksim -loadsched for the syntax")
	var (
		reportDir = fs.String("report", "", "with -scenario: also write a standalone HTML + CSV report into this directory")
		validate  = fs.Bool("validate", false, "with -scenario: parse and validate the file, run nothing")
		expList   = fs.String("exp", "all", expUsage())
		scaleName = fs.String("scale", "quick", "evaluation scale: quick, default, or full")
		csv       = fs.Bool("csv", false, "emit CSV instead of aligned text")
		jsonOut   = fs.Bool("json", false, "emit one JSON array of all result tables instead of aligned text")
		list      = fs.Bool("list", false, "list available experiments and exit")
	)
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
	if *csv && *jsonOut {
		return fmt.Errorf("-csv and -json are mutually exclusive; pick one output format")
	}
	// emit prints one experiment's (or the scenario's) tables in the selected
	// format; -json collects them into one array flushed at the end.
	var jsonTables []experiment.Table
	emit := func(tables []experiment.Table) {
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
	flushJSON := func() error {
		if !*jsonOut {
			return nil
		}
		// One array of every emitted table, machine-readable.
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(jsonTables)
	}

	if *rf.Scenario != "" {
		// Every flag that selects or shapes a paper experiment would be
		// silently discarded.
		if err := rf.ScenarioConflict("exp", "loadsched", "scale", "seed", "requests", "l1kb", "l2kb", "nohier", "list"); err != nil {
			return err
		}
		return runScenario(stdout, rf, *reportDir, *validate, emit, flushJSON)
	}
	if *reportDir != "" || *validate {
		return fmt.Errorf("-report and -validate only apply to -scenario runs")
	}
	if rf.Recorder() != nil {
		// The paper experiments fan out over dozens of internal runs with no
		// stable per-run identity to label trace rows with; the scenario
		// engine is the traced path.
		return fmt.Errorf("-trace only applies to -scenario runs")
	}

	if *list {
		for _, e := range registry {
			fmt.Fprintf(stdout, "%-11s %s\n", e.id, e.blurb)
		}
		return nil
	}

	x := &env{}
	if x.scale, err = scaleByName(*scaleName); err != nil {
		return err
	}
	x.scale.Seed = *rf.Seed
	x.scale.Parallelism = rf.Workers()
	if *rf.Requests > 0 {
		x.scale.RequestFactor = *rf.Requests
	}
	// One pool for the whole invocation, so experiments selected together
	// (fig7+flash, cluster+hetero, fig1a+fig1b+fig2) share their calibration
	// and baseline runs too.
	x.scale.Warm = sim.NewWarmPool()
	x.cfg = scenario.Spec{Machine: rf.Machine()}.BaseConfig()
	x.cfg.Seed = *rf.Seed // verbatim: the scenario format would read 0 as "default"

	x.mainComparison = sync.OnceValues(func() ([]experiment.MixRecord, error) {
		return experiment.RunMainComparison(x.cfg, x.scale)
	})

	x.sched = experiment.DefaultFig7Schedule(x.cfg)
	if *rf.LoadSched != "" {
		if x.sched, err = workload.ParseSchedule(*rf.LoadSched); err != nil {
			return err
		}
	}

	wanted := map[string]bool{}
	for _, e := range strings.Split(*expList, ",") {
		wanted[strings.TrimSpace(e)] = true
	}
	for _, e := range registry {
		if !wanted["all"] && !wanted[e.id] {
			continue
		}
		tables, err := e.run(x)
		if err != nil {
			return err
		}
		emit(tables)
	}
	return flushJSON()
}

// runScenario is the -scenario entry point: parse (and maybe just validate)
// the file, run it through the scenario engine, print its tables in the
// selected format, and optionally write the HTML/CSV report.
func runScenario(stdout io.Writer, rf *scenario.RunFlags, reportDir string, validateOnly bool,
	emit func([]experiment.Table), flushJSON func() error) error {
	spec, err := scenario.ParseFile(*rf.Scenario)
	if err != nil {
		return err
	}
	if validateOnly {
		mode := "single-node"
		if spec.IsCluster() {
			mode = fmt.Sprintf("%d-node cluster", spec.Cluster.Nodes)
		}
		fmt.Fprintf(stdout, "%s: valid (scenario %q, %s, %d app entries, %d schemes, %d faults)\n",
			*rf.Scenario, spec.Name, mode, len(spec.Apps), len(spec.Schemes), len(spec.Faults))
		return nil
	}
	rec := rf.Recorder()
	out, err := experiment.RunScenarioTraced(spec, rf.Workers(), sim.NewWarmPool(), nil, rec)
	if err != nil {
		return err
	}
	emit(experiment.ScenarioTables(out))
	if err := flushJSON(); err != nil {
		return err
	}
	if reportDir != "" {
		htmlPath, csvPath, err := experiment.WriteScenarioReport(out, reportDir)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "report written: %s, %s\n", htmlPath, csvPath)
	}
	return rf.WriteTrace(stdout, rec)
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

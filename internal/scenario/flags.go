package scenario

import (
	"flag"
	"fmt"
	"io"
	"runtime"

	"repro/internal/prof"
	"repro/internal/trace"
)

// RunFlags are the flags every simulation command shares, declared once
// beside the spec they lower to. The exported fields are valid after the flag
// set has parsed.
type RunFlags struct {
	// Scenario is the -scenario file path ("" = the run comes from flags).
	Scenario *string
	// Seed, Requests and LoadSched are the run-shaping values the commands
	// lower themselves.
	Seed      *uint64
	Requests  *float64
	LoadSched *string
	// Prof owns -cpuprofile and -memprofile.
	Prof *prof.Flags

	fs          *flag.FlagSet
	parallelism *int
	l1KB, l2KB  *float64
	noHier      *bool
	trace       *string
}

// RegisterRunFlags declares the shared flags on fs. The commands differ only
// in what -requests and -loadsched default to and mean, so those defaults and
// usage strings are parameters.
func RegisterRunFlags(fs *flag.FlagSet, requests float64, requestsUsage, loadSched, loadSchedUsage string) *RunFlags {
	return &RunFlags{
		fs:          fs,
		Scenario:    fs.String("scenario", "", "run a declarative scenario file (JSON; see examples/scenarios); the file defines the whole run, so run-shaping flags conflict with it"),
		Seed:        fs.Uint64("seed", 1, "random seed"),
		Requests:    fs.Float64("requests", requests, requestsUsage),
		LoadSched:   fs.String("loadsched", loadSched, loadSchedUsage),
		parallelism: fs.Int("parallelism", 0, "workers for independent simulations: sweep points, isolation baselines, cluster nodes (0 = GOMAXPROCS); results are identical at any setting"),
		l1KB:        fs.Float64("l1kb", defaultL1KB, "private L1 size in model KB (0 disables the level)"),
		l2KB:        fs.Float64("l2kb", defaultL2KB, "private L2 size in model KB (0 disables the level)"),
		noHier:      fs.Bool("nohier", false, "disable the private L1/L2 levels entirely (flat pre-hierarchy LLC)"),
		trace:       fs.String("trace", "", "write a Chrome trace-event JSON file (open in chrome://tracing or ui.perfetto.dev) recording scheduler quanta, reconfigurations, fault activations and cold restarts of every scheme run (experiments: -scenario runs only); recording is observational, results are identical with or without it"),
		Prof:        prof.RegisterFlags(fs),
	}
}

// Explicit returns the set of flags given on the command line.
func (f *RunFlags) Explicit() map[string]bool {
	explicit := map[string]bool{}
	f.fs.Visit(func(fl *flag.Flag) { explicit[fl.Name] = true })
	return explicit
}

// ScenarioConflict reports the first of the named run-shaping flags given
// explicitly next to -scenario: the file defines the whole run, so the flag
// would be silently discarded.
func (f *RunFlags) ScenarioConflict(names ...string) error {
	explicit := f.Explicit()
	for _, name := range names {
		if explicit[name] {
			return fmt.Errorf("-%s conflicts with -scenario: the scenario file defines the whole run (drop -%s or edit %s)", name, name, *f.Scenario)
		}
	}
	return nil
}

// Workers resolves -parallelism.
func (f *RunFlags) Workers() int {
	if *f.parallelism <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return *f.parallelism
}

// Machine lowers -l1kb/-l2kb/-nohier. The scenario format reads 0 as "the
// default" and negative as "level disabled"; the flags read 0 as "disabled"
// and carry the default in the flag's own default value.
func (f *RunFlags) Machine() Machine {
	if *f.noHier {
		return Machine{Flat: true}
	}
	m := Machine{L1KB: *f.l1KB, L2KB: *f.l2KB}
	if m.L1KB == 0 {
		m.L1KB = -1
	}
	if m.L2KB == 0 {
		m.L2KB = -1
	}
	return m
}

// Recorder returns a trace recorder when -trace is set, nil otherwise.
func (f *RunFlags) Recorder() *trace.Recorder {
	if *f.trace == "" {
		return nil
	}
	return trace.NewRecorder(0)
}

// WriteTrace writes rec to the -trace file and a summary line to stdout; a
// nil recorder (no -trace) is a no-op.
func (f *RunFlags) WriteTrace(stdout io.Writer, rec *trace.Recorder) error {
	if rec == nil {
		return nil
	}
	if err := rec.WriteFile(*f.trace); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "trace: %d events written to %s (%d oldest dropped by ring wrap)\n", rec.Len(), *f.trace, rec.Dropped())
	return nil
}

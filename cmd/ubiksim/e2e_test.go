// Package e2e runs single-mix and single-fleet simulations end to end through
// the built experiments binary, one scenario file per case, the way the
// README's quickstart does: it checks the process's exit status, its stderr
// and the tables it renders. The directory keeps the name of the retired
// single-mix command whose invocations these cases first covered; each case
// is now the scenario file that mirrors one of its flag sets, and the
// retired run-shaping flags are pinned as unknown.
package e2e

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/tracein"
)

// experimentsBin is the experiments binary TestMain builds for the package.
var experimentsBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "experiments-e2e")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	experimentsBin = filepath.Join(dir, "experiments")
	code := 1
	if out, err := exec.Command("go", "build", "-o", experimentsBin, "../experiments").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building cmd/experiments: %v\n%s", err, out)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// run executes the experiments binary with args; a non-zero exit is an error.
func run(args []string, stdout, stderr io.Writer) error {
	cmd := exec.Command(experimentsBin, args...)
	cmd.Stdout, cmd.Stderr = stdout, stderr
	return cmd.Run()
}

// scenarioFile writes a scenario file from its top-level fields after the
// version and name, and returns its path.
func scenarioFile(t *testing.T, dir, name, fields string) string {
	t.Helper()
	path := filepath.Join(dir, name+".json")
	writeFile(t, path, fmt.Sprintf("{ \"version\": 1, \"name\": %q,\n  %s }\n", name, fields))
	return path
}

// mix is the small colocation most cases run: masstree at 20% load next to
// mcf, at a tiny request factor.
const mix = `"request_factor": 0.03, "apps": [ { "lc": "masstree", "load": 0.2 }, { "batch": "mcf" } ]`

// TestRunEndToEnd drives the binary (flag parsing through simulation to
// rendered output, or to a failing exit) over representative scenario files,
// asserting exit status and key output fields. Runs use tiny request factors
// so the whole table stays fast.
func TestRunEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end runs are slow")
	}
	dir := t.TempDir()
	cases := []struct {
		name    string
		fields  string   // the scenario's fields; "" = run args alone
		args    []string // flags after -scenario (or the whole command line)
		wantErr string   // substring of stderr, "" = must succeed
		want    []string // substrings of stdout
		absent  []string // substrings stdout must not contain
	}{
		{
			name:   "default scheme tiny run",
			fields: mix + `, "schemes": [ { "name": "ubik" } ]`,
			want: []string{
				"== scenario-summary:", "ubik|slack=0.05",
				"pooled_lc_tail", "isolated_tail", "degradation", "weighted_speedup",
				"== scenario-slots:", "masstree", "mcf",
			},
			absent: []string{"scenario-windows"},
		},
		{
			name:   "lru on flat hierarchy",
			fields: mix + `, "machine": { "flat": true }, "schemes": [ { "name": "lru" } ]`,
			args:   []string{"-csv"},
			// A flat machine has no private levels, so nothing hits in them.
			want: []string{"scheme,pooled_lc_tail,", ",0,masstree,lc,", ",0.000,0.000\n"},
		},
		{
			name: "burst schedule prints windowed tails",
			fields: `"request_factor": 0.05, "apps": [ { "lc": "masstree", "load": 0.2, "instances": 2,
    "sched": "burst:at=2e6,dur=2e6,x=4" }, { "batch": "mcf" } ], "schemes": [ { "name": "staticlc" } ]`,
			want: []string{"== scenario-windows:", "start_cycle", "degradation"},
		},
		{
			name:   "cluster tiny run",
			fields: mix + `, "cluster": { "nodes": 2, "fanout": 2 }, "schemes": [ { "name": "staticlc" } ]`,
			want:   []string{"queries", "p99", "tail_amp", "leaf_p95", "leaf_p99", "lc_ipc", "llc_miss"},
			absent: []string{"scenario-windows"},
		},
		{
			name: "cluster with hedging and schedule prints hedge wins and windows",
			fields: `"request_factor": 0.03, "apps": [ { "lc": "masstree", "load": 0.2, "sched": "burst:at=2e6,dur=2e6,x=3" },
    { "batch": "mcf" } ], "schemes": [ { "name": "staticlc" } ],
  "cluster": { "nodes": 3, "fanout": 2, "quorum": 1, "hedge": 0.3, "balancer": "p2c" }`,
			want: []string{"hedge_wins", "== scenario-windows:"},
		},
		{
			name:    "fanout beyond cluster fails",
			fields:  mix + `, "cluster": { "nodes": 2, "fanout": 3 }, "schemes": [ { "name": "ubik" } ]`,
			wantErr: "fan-out 3 exceeds the cluster size 2",
		},
		{
			name:    "quorum beyond fanout fails",
			fields:  mix + `, "cluster": { "nodes": 2, "fanout": 2, "quorum": 3 }, "schemes": [ { "name": "ubik" } ]`,
			wantErr: "quorum 3 must be in [1, fan-out 2]",
		},
		{
			name:    "hedging a fan-out-1 query fails",
			fields:  mix + `, "cluster": { "nodes": 2, "hedge": 0.3 }, "schemes": [ { "name": "ubik" } ]`,
			wantErr: "use fan-out 2, quorum 1 instead",
		},
		{
			name:    "hedging without a spare node fails",
			fields:  mix + `, "cluster": { "nodes": 2, "fanout": 2, "hedge": 0.3 }, "schemes": [ { "name": "ubik" } ]`,
			wantErr: "hedging needs a spare node",
		},
		{
			name:    "hedge fraction out of range fails",
			fields:  mix + `, "cluster": { "nodes": 3, "fanout": 2, "hedge": 1.5 }, "schemes": [ { "name": "ubik" } ]`,
			wantErr: "deadline fraction in [0,1)",
		},
		{
			name: "instances with cluster fails",
			fields: `"request_factor": 0.03, "apps": [ { "lc": "masstree", "load": 0.2, "instances": 3 }, { "batch": "mcf" } ],
  "cluster": { "nodes": 2 }, "schemes": [ { "name": "ubik" } ]`,
			wantErr: "replica per node",
		},
		{
			name:    "unknown balancer fails",
			fields:  mix + `, "cluster": { "nodes": 2, "balancer": "magic" }, "schemes": [ { "name": "ubik" } ]`,
			wantErr: `unknown balancer "magic"`,
		},
		{
			name:    "zero nodes fails",
			fields:  mix + `, "cluster": { "nodes": 0 }, "schemes": [ { "name": "ubik" } ]`,
			wantErr: "need at least one node, got 0",
		},
		{
			// The fleet shape lives in the scenario file alone.
			name:    "cluster flag without cluster fails",
			args:    []string{"-balancer", "p2c"},
			wantErr: "flag provided but not defined: -balancer",
		},
		{
			name:    "unknown scheme fails",
			fields:  mix + `, "schemes": [ { "name": "magic" } ]`,
			wantErr: `unknown scheme "magic"`,
		},
		{
			name:    "unknown lc app fails",
			fields:  `"apps": [ { "lc": "nosuchapp", "load": 0.2 } ], "schemes": [ { "name": "ubik" } ]`,
			wantErr: "unknown latency-critical profile",
		},
		{
			name: "unknown batch app fails",
			fields: `"apps": [ { "lc": "masstree", "load": 0.2 }, { "batch": "mcf" }, { "batch": "nosuchbatch" } ],
  "schemes": [ { "name": "ubik" } ]`,
			wantErr: "unknown batch profile",
		},
		{
			name:    "malformed schedule fails",
			fields:  `"apps": [ { "lc": "masstree", "load": 0.2, "sched": "burst:x=4" } ], "schemes": [ { "name": "ubik" } ]`,
			wantErr: "schedule dur must be positive",
		},
		{
			name:    "unknown schedule kind fails",
			fields:  `"apps": [ { "lc": "masstree", "load": 0.2, "sched": "tsunami:x=4" } ], "schemes": [ { "name": "ubik" } ]`,
			wantErr: "unknown schedule kind",
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
	for i, c := range cases {
		c := c
		args := c.args
		if c.fields != "" {
			args = append([]string{"-scenario", scenarioFile(t, dir, fmt.Sprintf("case%d", i), c.fields)}, c.args...)
		}
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			var stdout, stderr bytes.Buffer
			err := run(args, &stdout, &stderr)
			if c.wantErr != "" {
				if err == nil {
					t.Fatalf("expected error containing %q, got success\nstdout:\n%s", c.wantErr, stdout.String())
				}
				if !strings.Contains(stderr.String(), c.wantErr) {
					t.Fatalf("error %q (stderr %q) does not contain %q", err, stderr.String(), c.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("run(%v) failed: %v\nstderr:\n%s", args, err, stderr.String())
			}
			for _, want := range c.want {
				if !strings.Contains(stdout.String(), want) {
					t.Errorf("stdout missing %q:\n%s", want, stdout.String())
				}
			}
			for _, absent := range c.absent {
				if strings.Contains(stdout.String(), absent) {
					t.Errorf("stdout should not contain %q:\n%s", absent, stdout.String())
				}
			}
		})
	}
}

// TestRunDeterministicOutput pins that two identical invocations produce
// byte-identical output — the whole-binary determinism contract — and that
// -parallelism does not change the bytes either.
func TestRunDeterministicOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end runs are slow")
	}
	path := scenarioFile(t, t.TempDir(), "flash", `"request_factor": 0.03,
  "apps": [ { "lc": "masstree", "load": 0.2, "instances": 2, "sched": "flash:at=2e6,x=6,decay=1e6" }, { "batch": "mcf" } ],
  "schemes": [ { "name": "ubik" } ]`)
	out := func(parallelism string) string {
		var stdout, stderr bytes.Buffer
		if err := run([]string{"-scenario", path, "-parallelism", parallelism}, &stdout, &stderr); err != nil {
			t.Fatalf("%v\n%s", err, stderr.String())
		}
		return stdout.String()
	}
	a, b := out("2"), out("2")
	if a != b {
		t.Errorf("repeated runs differ:\n--- first\n%s\n--- second\n%s", a, b)
	}
	if serial := out("1"); serial != a {
		t.Errorf("output differs across -parallelism:\n--- p2\n%s\n--- p1\n%s", a, serial)
	}
}

// TestScenarioFlagHandling covers the -scenario entry: the file defines the
// whole run, so a run-shaping flag either conflicts with it or no longer
// exists, and missing or malformed files fail with actionable errors.
func TestScenarioFlagHandling(t *testing.T) {
	dir := t.TempDir()
	good := scenarioFile(t, dir, "good", mix+`, "schemes": [ { "name": "lru" } ]`)
	malformed := filepath.Join(dir, "broken.json")
	writeFile(t, malformed, "{\n  \"version\": 1,,\n}\n")
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"scenario conflicts with -nodes", []string{"-scenario", good, "-nodes", "2"}, "flag provided but not defined: -nodes"},
		{"scenario conflicts with -loadsched", []string{"-scenario", good, "-loadsched", "burst:at=1e6,dur=1e6,x=2"}, "-loadsched conflicts with -scenario"},
		{"scenario conflicts with -instances", []string{"-scenario", good, "-instances", "2"}, "flag provided but not defined: -instances"},
		{"scenario conflicts with -scheme", []string{"-scenario", good, "-scheme", "lru"}, "flag provided but not defined: -scheme"},
		{"missing file", []string{"-scenario", filepath.Join(dir, "nope.json")}, "no such file"},
		{"malformed file reports the position", []string{"-scenario", malformed}, "JSON syntax error at line 2"},
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
			if !strings.Contains(stderr.String(), c.wantErr) {
				t.Errorf("stderr %q does not contain %q", stderr.String(), c.wantErr)
			}
		})
	}
}

// TestTraceFlagHandling is the contradictory-entry sweep for trace replay:
// entries the recording displaces or cannot co-exist with are rejected up
// front, and broken trace files fail with actionable errors.
func TestTraceFlagHandling(t *testing.T) {
	dir := t.TempDir()
	good, kv := filepath.Join(dir, "mem.trace"), filepath.Join(dir, "kv.trace")
	for path, gen := range map[string]tracein.GenSpec{
		good: {Kind: tracein.KindMem, Gen: tracein.GenPhase, Records: 5000, Apps: 2, Seed: 5},
		kv:   {Kind: tracein.KindKV, Gen: tracein.GenZipf, Records: 5000, Seed: 5},
	} {
		if _, err := tracein.GenerateFile(path, gen); err != nil {
			t.Fatal(err)
		}
	}
	// replay writes a scenario whose second app entry is the given one.
	replay := func(name, entry, rest string) string {
		return scenarioFile(t, dir, name, `"request_factor": 0.03,
  "apps": [ { "lc": "masstree", "load": 0.2 }, `+entry+` ], "schemes": [ { "name": "ubik" } ]`+rest)
	}
	trace := func(path string, app int) string { return fmt.Sprintf(`{ "trace": %q, "trace_app": %d }`, path, app) }
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"traceapps without tracefile", []string{"-scenario", replay("no-trace", `{ "batch": "mcf", "trace_app": 1 }`, "")}, "trace_app without a trace"},
		{"batch conflict", []string{"-scenario", replay("batch", fmt.Sprintf(`{ "trace": %q, "batch": "mcf" }`, good), "")}, "exactly one of lc, batch and trace"},
		{"loadsched conflict", []string{"-scenario", replay("sched", fmt.Sprintf(`{ "trace": %q, "sched": "burst:at=1e6,dur=1e6,x=2" }`, good), "")}, "cannot re-time it"},
		{"cluster conflict", []string{"-scenario", replay("cluster", trace(good, 0), `, "cluster": { "nodes": 2 }`)}, "replay is single-node"},
		{"zero traceapps", []string{"-scenario", replay("negative", trace(good, -1), "")}, "negative trace_app"},
		{"scenario conflict", []string{"-scenario", replay("flag", trace(good, 0), ""), "-tracefile", good}, "flag provided but not defined: -tracefile"},
		{"missing file", []string{"-scenario", replay("missing", trace(filepath.Join(dir, "nope.trace"), 0), "")}, "no such file"},
		{"column out of range", []string{"-scenario", replay("column", trace(good, 2), "")}, "out of range"},
		{"kv trace rejected", []string{"-scenario", replay("kv", trace(kv, 0), "")}, "cannot drive a simulator address stream"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			var stdout, stderr bytes.Buffer
			err := run(c.args, &stdout, &stderr)
			if err == nil {
				t.Fatalf("run(%v) succeeded, want error containing %q", c.args, c.wantErr)
			}
			if !strings.Contains(stderr.String(), c.wantErr) {
				t.Errorf("stderr %q does not contain %q", stderr.String(), c.wantErr)
			}
		})
	}
}

// TestTraceReplayRun drives a recorded mem trace end to end: both app columns
// replay as batch slots next to the LC app.
func TestTraceReplayRun(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end runs are slow")
	}
	dir := t.TempDir()
	trace := filepath.Join(dir, "mem.trace")
	if _, err := tracein.GenerateFile(trace, tracein.GenSpec{
		Kind: tracein.KindMem, Gen: tracein.GenPhase, Records: 60_000, Apps: 2, Seed: 5,
	}); err != nil {
		t.Fatal(err)
	}
	path := scenarioFile(t, dir, "replay", fmt.Sprintf(`"request_factor": 0.03,
  "apps": [ { "lc": "masstree", "load": 0.2 }, { "trace": %q }, { "trace": %q, "trace_app": 1 } ],
  "schemes": [ { "name": "ubik" } ]`, trace, trace))
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-scenario", path}, &stdout, &stderr); err != nil {
		t.Fatalf("%v\n%s", err, stderr.String())
	}
	got := stdout.String()
	if n := strings.Count(got, "trace-replay"); n < 2 {
		t.Errorf("output lists %d trace-replay rows, want both columns:\n%s", n, got)
	}
	for _, want := range []string{"degradation", "weighted_speedup"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

// TestScenarioFaultRun drives a faulted cluster scenario end to end through
// the binary and checks the fault is visible in the per-node and per-window
// tables.
func TestScenarioFaultRun(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end runs are slow")
	}
	path := scenarioFile(t, t.TempDir(), "fault-e2e", mix+`, "cluster": { "nodes": 2, "fanout": 1 },
  "schemes": [ { "name": "ubik" } ],
  "faults": [ { "kind": "node-down", "node": 1, "at_cycle": 1, "duration_cycles": 1152921504606846976 } ]`)
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-scenario", path}, &stdout, &stderr); err != nil {
		t.Fatalf("%v\n%s", err, stderr.String())
	}
	for _, want := range []string{
		"== scenario-summary:", "queries", "tail_amp",
		"== scenario-slots:", "node-down",
		"== scenario-windows:", "node1:node-down",
	} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("stdout missing %q:\n%s", want, stdout.String())
		}
	}
}

// writeFile writes a test fixture, failing the test on error.
func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

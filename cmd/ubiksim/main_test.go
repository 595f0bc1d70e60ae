package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/tracein"
)

// TestRunEndToEnd drives the full binary entry point (flag parsing through
// simulation to rendered output) over representative flag sets, asserting
// error status and key output fields. Runs use tiny request factors so the
// whole table stays fast.
func TestRunEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end runs are slow")
	}
	cases := []struct {
		name    string
		args    []string
		wantErr string   // substring of the error, "" = must succeed
		want    []string // substrings of stdout
		absent  []string // substrings stdout must not contain
	}{
		{
			name: "default scheme tiny run",
			args: []string{"-lc", "masstree", "-load", "0.2", "-instances", "1", "-batch", "mcf", "-requests", "0.03"},
			want: []string{
				"Calibrating masstree at 20% load",
				"Running mix under Ubik(slack=5%)",
				"tail latency degradation:",
				"batch weighted speedup:",
			},
			absent: []string{"per-window"},
		},
		{
			name: "lru on flat hierarchy",
			args: []string{"-lc", "masstree", "-load", "0.2", "-instances", "1", "-batch", "mcf", "-requests", "0.03", "-scheme", "lru", "-nohier"},
			want: []string{"Running mix under LRU", "pooled LC tail latency:"},
		},
		{
			name: "burst schedule prints windowed tails",
			args: []string{"-lc", "masstree", "-load", "0.2", "-instances", "2", "-batch", "mcf", "-requests", "0.05",
				"-scheme", "staticlc", "-loadsched", "burst:at=2e6,dur=2e6,x=4"},
			want: []string{
				"with load schedule burst:at=2000000,dur=2000000,x=4",
				"per-window pooled LC latency",
				"start_cycles",
				"tail latency degradation:",
			},
		},
		{
			name: "cluster tiny run",
			args: []string{"-lc", "masstree", "-load", "0.2", "-batch", "mcf", "-requests", "0.03",
				"-scheme", "staticlc", "-nodes", "2", "-fanout", "2"},
			want: []string{
				"Running 2-node cluster under StaticLC: fanout 2, quorum 2, balancer rr",
				"leaf_p95",
				"cluster queries:",
				"query p99 latency:",
				"query tail amplification:",
			},
			absent: []string{"per-window"},
		},
		{
			name: "cluster with hedging and schedule prints hedge wins and windows",
			args: []string{"-lc", "masstree", "-load", "0.2", "-batch", "mcf", "-requests", "0.03",
				"-scheme", "staticlc", "-nodes", "3", "-fanout", "2", "-quorum", "1", "-hedge", "0.3",
				"-balancer", "p2c", "-loadsched", "burst:at=2e6,dur=2e6,x=3"},
			want: []string{
				"quorum 1, balancer p2c, load schedule burst:",
				"hedge wins:",
				"per-window query latency",
			},
		},
		{
			name:    "fanout beyond cluster fails",
			args:    []string{"-nodes", "2", "-fanout", "3"},
			wantErr: "fan-out 3 exceeds the cluster size 2",
		},
		{
			name:    "quorum beyond fanout fails",
			args:    []string{"-nodes", "2", "-fanout", "2", "-quorum", "3"},
			wantErr: "quorum 3 must be in [1, fan-out 2]",
		},
		{
			name:    "hedging a fan-out-1 query fails",
			args:    []string{"-nodes", "2", "-hedge", "0.3"},
			wantErr: "use fan-out 2, quorum 1 instead",
		},
		{
			name:    "hedging without a spare node fails",
			args:    []string{"-nodes", "2", "-fanout", "2", "-hedge", "0.3"},
			wantErr: "hedging needs a spare node",
		},
		{
			name:    "hedge fraction out of range fails",
			args:    []string{"-nodes", "3", "-fanout", "2", "-hedge", "1.5"},
			wantErr: "deadline fraction in [0,1)",
		},
		{
			name:    "instances with cluster fails",
			args:    []string{"-nodes", "2", "-instances", "3"},
			wantErr: "one replica per node",
		},
		{
			name:    "unknown balancer fails",
			args:    []string{"-nodes", "2", "-balancer", "magic"},
			wantErr: `unknown balancer "magic"`,
		},
		{
			name:    "zero nodes fails",
			args:    []string{"-nodes", "0"},
			wantErr: "-nodes must be at least 1",
		},
		{
			name:    "cluster flag without cluster fails",
			args:    []string{"-balancer", "p2c"},
			wantErr: "set -nodes above 1 to run a cluster",
		},
		{
			name:    "unknown scheme fails",
			args:    []string{"-scheme", "magic"},
			wantErr: `unknown scheme "magic"`,
		},
		{
			name:    "unknown lc app fails",
			args:    []string{"-lc", "nosuchapp"},
			wantErr: "unknown latency-critical profile",
		},
		{
			name:    "unknown batch app fails",
			args:    []string{"-batch", "mcf,nosuchbatch"},
			wantErr: "unknown batch profile",
		},
		{
			name:    "malformed schedule fails",
			args:    []string{"-loadsched", "burst:x=4"},
			wantErr: "schedule dur must be positive",
		},
		{
			name:    "unknown schedule kind fails",
			args:    []string{"-loadsched", "tsunami:x=4"},
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
		if !strings.Contains(stderr.String(), "Usage of ubiksim") {
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
			for _, absent := range c.absent {
				if strings.Contains(stdout.String(), absent) {
					t.Errorf("stdout should not contain %q:\n%s", absent, stdout.String())
				}
			}
		})
	}
}

// TestRunDeterministicOutput pins that two identical invocations produce
// byte-identical output — the whole-binary determinism contract.
func TestRunDeterministicOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end runs are slow")
	}
	args := []string{"-lc", "masstree", "-load", "0.2", "-instances", "2", "-batch", "mcf", "-requests", "0.03",
		"-scheme", "ubik", "-loadsched", "flash:at=2e6,x=6,decay=1e6", "-parallelism", "2"}
	out := func() string {
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); err != nil {
			t.Fatal(err)
		}
		return stdout.String()
	}
	a, b := out(), out()
	if a != b {
		t.Errorf("repeated runs differ:\n--- first\n%s\n--- second\n%s", a, b)
	}
	// And -parallelism must not change the bytes either.
	serialArgs := append([]string{}, args...)
	serialArgs[len(serialArgs)-1] = "1"
	var stdout, stderr bytes.Buffer
	if err := run(serialArgs, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if stdout.String() != a {
		t.Errorf("output differs across -parallelism:\n--- p2\n%s\n--- p1\n%s", a, stdout.String())
	}
}

// TestScenarioFlagHandling covers the -scenario entry: spec-shaping flags
// conflict with it, missing or malformed files fail with actionable errors,
// and non-shaping flags (-parallelism) still apply.
func TestScenarioFlagHandling(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	writeFile(t, good, `{
  "version": 1,
  "name": "tiny",
  "request_factor": 0.03,
  "apps": [
    { "lc": "masstree", "load": 0.2 },
    { "batch": "mcf" }
  ],
  "schemes": [ { "name": "lru" } ]
}
`)
	malformed := filepath.Join(dir, "broken.json")
	writeFile(t, malformed, "{\n  \"version\": 1,,\n}\n")
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"scenario conflicts with -nodes", []string{"-scenario", good, "-nodes", "2"}, "-nodes conflicts with -scenario"},
		{"scenario conflicts with -loadsched", []string{"-scenario", good, "-loadsched", "burst:at=1e6,dur=1e6,x=2"}, "-loadsched conflicts with -scenario"},
		{"scenario conflicts with -instances", []string{"-scenario", good, "-instances", "2"}, "-instances conflicts with -scenario"},
		{"scenario conflicts with -scheme", []string{"-scenario", good, "-scheme", "lru"}, "-scheme conflicts with -scenario"},
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
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("error %q does not contain %q", err, c.wantErr)
			}
		})
	}
}

// TestTraceFlagHandling is the contradictory-flag sweep for -tracefile:
// flags the recording displaces or cannot co-exist with are rejected up
// front, and broken trace files fail with actionable errors.
func TestTraceFlagHandling(t *testing.T) {
	good := filepath.Join(t.TempDir(), "mem.trace")
	if _, err := tracein.GenerateFile(good, tracein.GenSpec{
		Kind: tracein.KindMem, Gen: tracein.GenPhase, Records: 5000, Apps: 2, Seed: 5,
	}); err != nil {
		t.Fatal(err)
	}
	kv := filepath.Join(t.TempDir(), "kv.trace")
	if _, err := tracein.GenerateFile(kv, tracein.GenSpec{
		Kind: tracein.KindKV, Gen: tracein.GenZipf, Records: 5000, Seed: 5,
	}); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"traceapps without tracefile", []string{"-traceapps", "2"}, "add -tracefile or drop -traceapps"},
		{"batch conflict", []string{"-tracefile", good, "-batch", "mcf"}, "-batch conflicts with -tracefile"},
		{"loadsched conflict", []string{"-tracefile", good, "-loadsched", "burst:at=1e6,dur=1e6,x=2"}, "-loadsched conflicts with -tracefile"},
		{"cluster conflict", []string{"-tracefile", good, "-nodes", "2"}, "replay is single-node"},
		{"zero traceapps", []string{"-tracefile", good, "-traceapps", "0"}, "-traceapps must be at least 1"},
		{"scenario conflict", []string{"-scenario", "x.json", "-tracefile", good}, "-tracefile conflicts with -scenario"},
		{"missing file", []string{"-tracefile", filepath.Join(t.TempDir(), "nope.trace"), "-requests", "0.03"}, "no such file"},
		{"column out of range", []string{"-tracefile", good, "-traceapps", "3", "-requests", "0.03"}, "out of range"},
		{"kv trace rejected", []string{"-tracefile", kv, "-requests", "0.03"}, "cannot drive a simulator address stream"},
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
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("error %q does not contain %q", err, c.wantErr)
			}
		})
	}
}

// TestTraceReplayRun drives a recorded mem trace end to end through the flag
// entry point: both app columns replay as batch slots next to the LC app.
func TestTraceReplayRun(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end runs are slow")
	}
	path := filepath.Join(t.TempDir(), "mem.trace")
	if _, err := tracein.GenerateFile(path, tracein.GenSpec{
		Kind: tracein.KindMem, Gen: tracein.GenPhase, Records: 60_000, Apps: 2, Seed: 5,
	}); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	err := run([]string{"-lc", "masstree", "-load", "0.2", "-instances", "1",
		"-tracefile", path, "-traceapps", "2", "-requests", "0.03"}, &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	got := stdout.String()
	if n := strings.Count(got, "trace-replay"); n < 2 {
		t.Errorf("output lists %d trace-replay rows, want both columns:\n%s", n, got)
	}
	for _, want := range []string{"tail latency degradation:", "batch weighted speedup:"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

// TestScenarioMatchesFlags pins the entry-point unification: a scenario file
// that mirrors a flag set reproduces the flag run's output byte for byte,
// because both lower to the same scenario spec and runner.
func TestScenarioMatchesFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end runs are slow")
	}
	flagArgs := []string{"-lc", "masstree", "-load", "0.2", "-instances", "1",
		"-batch", "mcf", "-requests", "0.03", "-parallelism", "2"}
	path := filepath.Join(t.TempDir(), "mirror.json")
	writeFile(t, path, `{
  "version": 1,
  "name": "mirror",
  "seed": 1,
  "request_factor": 0.03,
  "machine": { "l1_kb": 32, "l2_kb": 256 },
  "apps": [
    { "lc": "masstree", "load": 0.2, "instances": 1 },
    { "batch": "mcf" }
  ],
  "schemes": [ { "name": "ubik", "slack": 0.05 } ]
}
`)
	out := func(args []string) string {
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); err != nil {
			t.Fatalf("run(%v): %v", args, err)
		}
		return stdout.String()
	}
	fromFlags := out(flagArgs)
	fromScenario := out([]string{"-scenario", path, "-parallelism", "2"})
	if fromFlags != fromScenario {
		t.Errorf("scenario output differs from the equivalent flag run:\n--- flags\n%s\n--- scenario\n%s",
			fromFlags, fromScenario)
	}
}

// TestScenarioFaultRun drives a faulted cluster scenario end to end through
// the binary and checks the fault is visible in the per-node table.
func TestScenarioFaultRun(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end runs are slow")
	}
	path := filepath.Join(t.TempDir(), "fault.json")
	writeFile(t, path, `{
  "version": 1,
  "name": "fault-e2e",
  "request_factor": 0.03,
  "apps": [
    { "lc": "masstree", "load": 0.2 },
    { "batch": "mcf" }
  ],
  "cluster": { "nodes": 2, "fanout": 1 },
  "schemes": [ { "name": "ubik" } ],
  "faults": [
    { "kind": "node-down", "node": 1, "at_cycle": 1, "duration_cycles": 1152921504606846976 }
  ]
}
`)
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-scenario", path}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"Injecting 1 fault-plan entries",
		"Running 2-node cluster under Ubik",
		"per-window query latency",
		"cluster queries:",
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

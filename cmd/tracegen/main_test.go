package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/tracein"
)

// TestGenerateBinaryAndReplayable writes a small kv trace and re-opens it.
func TestGenerateBinaryAndReplayable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "kv.trace")
	var out strings.Builder
	err := run([]string{
		"-out", path, "-kind", "kv", "-gen", "mixed",
		"-records", "5000", "-apps", "2", "-keys", "1000",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "wrote 5000 kv records") {
		t.Fatalf("summary line missing:\n%s", out.String())
	}
	tr, err := tracein.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if tr.Len() != 5000 || tr.Apps() != 2 || tr.Kind() != tracein.KindKV {
		t.Fatalf("reopened trace = %d records, %d apps, kind %s", tr.Len(), tr.Apps(), tr.Kind())
	}
}

// TestCSVOverride checks -csv forces the text format on any suffix.
func TestCSVOverride(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mem.trace")
	var out strings.Builder
	if err := run([]string{"-out", path, "-records", "100", "-csv"}, &out); err != nil {
		t.Fatal(err)
	}
	tr, err := tracein.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if tr.Mapped() {
		t.Error("a CSV trace should not take the binary mmap path")
	}
	if tr.Len() != 100 {
		t.Fatalf("reopened trace has %d records", tr.Len())
	}
}

// TestRejectsContradictoryFlags is the flag-validation sweep: kv-only and
// generator-specific flags are rejected when they would be silently ignored.
func TestRejectsContradictoryFlags(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"missing out", []string{"-records", "10"}, "-out is required"},
		{"bad kind", []string{"-out", "x", "-kind", "sql"}, "sql"},
		{"bad gen", []string{"-out", "x", "-gen", "fractal"}, "fractal"},
		{"setfrac on mem", []string{"-out", "x", "-setfrac", "0.5"}, "-setfrac shapes kv records"},
		{"valuesize on mem", []string{"-out", "x", "-valuesize", "64"}, "-valuesize shapes kv records"},
		{"phases on zipf", []string{"-out", "x", "-gen", "zipf", "-phases", "8"}, "-phases only shapes the phase generator"},
		{"zero records", []string{"-out", "x", "-records", "0"}, "at least 1 record"},
		{"flat zipf", []string{"-out", "x", "-zipf", "1.0"}, "zipf skew"},
		{"records under apps", []string{"-out", "x", "-records", "2", "-apps", "3"}, "cannot cover"},
		{"zero setfrac", []string{"-out", "x", "-kind", "kv", "-setfrac", "0"}, "default 0.1"},
		{"zero valuesize", []string{"-out", "x", "-kind", "kv", "-valuesize", "0"}, "default 128 bytes"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			var out strings.Builder
			err := run(c.args, &out)
			if err == nil {
				t.Fatalf("run(%v) succeeded, want error containing %q", c.args, c.wantErr)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("error %q does not contain %q", err, c.wantErr)
			}
		})
	}
}

// TestFlagClasses pins that every flag shaping the records is behavioural:
// moving it from the base run's value changes the written trace.
func TestFlagClasses(t *testing.T) {
	dir := t.TempDir()
	kv := []string{"-kind", "kv", "-gen", "mixed", "-records", "2000", "-apps", "2", "-keys", "400"}
	phase := append(kv[:len(kv):len(kv)], "-gen", "phase")
	trace := func(name string, args []string) string {
		path := filepath.Join(dir, name)
		if err := run(append([]string{"-out", path}, args...), &strings.Builder{}); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	for _, c := range []struct{ base, flag []string }{
		{kv, []string{"-kind", "mem"}},
		{kv, []string{"-gen", "zipf"}},
		{kv, []string{"-records", "1000"}},
		{kv, []string{"-apps", "3"}},
		{kv, []string{"-keys", "300"}},
		{kv, []string{"-zipf", "1.3"}},
		{kv, []string{"-setfrac", "0.3"}},
		{kv, []string{"-valuesize", "64"}},
		{kv, []string{"-meangap", "50"}},
		{kv, []string{"-seed", "2"}},
		{kv, []string{"-csv"}},
		{phase, []string{"-phases", "2"}},
	} {
		if trace("base", c.base) == trace("flip", append(c.base[:len(c.base):len(c.base)], c.flag...)) {
			t.Errorf("%v leaves the trace unchanged", c.flag)
		}
	}
}

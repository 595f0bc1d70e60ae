package prof

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestStartStopWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	stop, err := Start(cpu, mem)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s not written: %v", p, err)
		}
		if fi.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
	if err := stop(); err != nil {
		t.Errorf("second stop should be a nil no-op, got %v", err)
	}
}

func TestStartNoPathsIsNoOp(t *testing.T) {
	stop, err := Start("", "")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
}

func TestStartReportsCreateError(t *testing.T) {
	dir := t.TempDir()
	if _, err := Start(filepath.Join(dir, "missing", "cpu.pprof"), ""); err == nil {
		t.Fatal("Start with an uncreatable CPU path should fail")
	}
	stop, err := Start("", filepath.Join(dir, "missing", "mem.pprof"))
	if err != nil {
		t.Fatalf("Start: heap-profile path is only used at stop, got %v", err)
	}
	if err := stop(); err == nil {
		t.Fatal("stop with an uncreatable heap path should fail")
	}
}

// TestStopPropagatesCPUCloseError is the satellite's core case: a failure
// closing the CPU-profile file must reach the caller, not vanish. os.Create
// returns a concrete *os.File, so the injected failure is staged by handing
// Start an already-closed descriptor: pprof's background writer drops its
// writes silently, and stop's Close is the first call that can report it.
func TestStopPropagatesCPUCloseError(t *testing.T) {
	orig := osCreate
	osCreate = func(name string) (*os.File, error) {
		f, err := os.Create(name)
		if err != nil {
			return nil, err
		}
		f.Close()
		return f, nil
	}
	defer func() { osCreate = orig }()

	stop, err := Start(filepath.Join(t.TempDir(), "cpu.pprof"), "")
	if err != nil {
		// StartCPUProfile writes lazily, so a closed file is accepted here.
		t.Fatalf("Start: %v", err)
	}
	err = stop()
	if err == nil {
		t.Fatal("stop must propagate the CPU-profile close error")
	}
	if !strings.Contains(err.Error(), "close CPU profile") {
		t.Fatalf("error should identify the close step, got: %v", err)
	}
}

// Package prof wires the standard -cpuprofile/-memprofile flags into the
// command-line tools, so performance work can measure the simulator instead
// of guessing.
package prof

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// osCreate is os.Create, swappable by tests to exercise file-error paths.
var osCreate = os.Create

// Flags holds the parsed -cpuprofile and -memprofile values.
type Flags struct{ cpu, mem *string }

// RegisterFlags declares -cpuprofile and -memprofile on fs.
func RegisterFlags(fs *flag.FlagSet) *Flags {
	return &Flags{
		cpu: fs.String("cpuprofile", "", "write a CPU profile to this file"),
		mem: fs.String("memprofile", "", "write a heap profile to this file at exit"),
	}
}

// Start begins the profiles the parsed flags ask for. Call it right after
// flag parsing and defer the returned function with the address of the
// caller's named error result: it finishes the profiles, and since a
// truncated profile must fail the run but never mask a run error, it stores
// a failure to finish them only into a nil *retErr.
func (f *Flags) Start() (finish func(retErr *error), err error) {
	stop, err := Start(*f.cpu, *f.mem)
	if err != nil {
		return nil, err
	}
	return func(retErr *error) {
		if perr := stop(); *retErr == nil {
			*retErr = perr
		}
	}, nil
}

// Start begins CPU profiling to cpuPath (if non-empty) and returns an
// idempotent stop function that ends the CPU profile, closes its file, and
// writes a heap profile to memPath (if non-empty). Run the stop function on
// every exit path, checking its error — a close that fails can truncate the
// profile trailer, and a perf run with a silently corrupt profile is worse
// than no run.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = osCreate(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("prof: create CPU profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("prof: start CPU profile: %w", err)
		}
	}
	done := false
	stop = func() error {
		if done {
			return nil
		}
		done = true
		var firstErr error
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				firstErr = fmt.Errorf("prof: close CPU profile: %w", err)
			}
		}
		if memPath != "" {
			if err := writeHeapProfile(memPath); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}
	return stop, nil
}

// writeHeapProfile materialises final live-heap statistics and writes them,
// reporting create, write and close failures alike.
func writeHeapProfile(path string) error {
	f, err := osCreate(path)
	if err != nil {
		return fmt.Errorf("prof: create heap profile: %w", err)
	}
	runtime.GC() // materialise final live-heap statistics
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("prof: write heap profile: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("prof: close heap profile: %w", err)
	}
	return nil
}

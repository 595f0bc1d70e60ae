package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// env is what a workload or probe gets from the harness: the seed its inputs
// derive from, the client count, the sizes, a scratch directory inside the
// checkout, the tracer (nil when untraced) and the correctness ledger.
type env struct {
	seed  uint64
	nproc int
	sz    sizes
	root  string // repository root (holds BENCHMARK.json)
	tmp   string // scratch directory, removed on exit
	tr    *tracer

	attempted, failed atomic.Int64
	mu                sync.Mutex
	complaints        []string
}

// check records one verified outcome; a false ok counts as a failed
// operation and its message is printed (the first few only).
func (e *env) check(ok bool, format string, args ...any) bool {
	e.attempted.Add(1)
	if !ok {
		e.fail(1, format, args...)
	}
	return ok
}

// count adds a batch of operations whose outcomes the caller verified.
func (e *env) count(attempted int64) { e.attempted.Add(attempted) }

func (e *env) fail(n int64, format string, args ...any) {
	e.failed.Add(n)
	e.mu.Lock()
	if len(e.complaints) < 10 {
		msg := fmt.Sprintf(format, args...)
		e.complaints = append(e.complaints, msg)
		fmt.Fprintln(os.Stderr, "bench: FAILED:", msg)
	}
	e.mu.Unlock()
}

// workloadDef is one named set of inputs.
type workloadDef struct {
	name string
	// setup does everything that precedes the timed region — input
	// generation, isolation baselines, cache warm-up — and returns the
	// instance the repetitions run on.
	setup func(e *env) (instance, error)
}

// instance is a set-up workload. rep performs one repetition of the
// workload's fixed work under the given parent span and reports the work
// units done plus the two figures of merit; finish runs the end-of-run
// invariants; close releases resources.
type instance interface {
	rep(e *env, parent int) (repResult, error)
	finish(e *env)
	close()
}

type repResult struct {
	work     float64 // work units completed (workload-defined)
	qos, eff float64 // figures of merit for this repetition
}

// metricValue is one reported number with the samples behind it.
type metricValue struct {
	Name    string    `json:"name"`
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples,omitempty"`
}

func unitOf(list []metricSpec, name string) string {
	for _, m := range list {
		if m.name == name {
			return m.unit
		}
	}
	panic("bench: metric " + name + " is not declared in spec.go")
}

// medianOf reports a metric as the median of its samples (one sample for a
// count or a ratio of two medians).
func medianOf(list []metricSpec, name string, samples ...float64) metricValue {
	return metricValue{Name: name, Value: median(samples), Unit: unitOf(list, name), N: len(samples), Samples: samples}
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile interpolates the q-quantile of v (0 for an empty slice).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// tailQuantile reports the wanted percentile only when at least ten samples
// lie beyond it; with fewer it falls back to the highest percentile the
// sample supports (the median below twenty samples).
func tailQuantile(v []float64, want float64) float64 {
	n := float64(len(v))
	if n < 20 {
		return median(v)
	}
	if supported := 1 - 10/n; supported < want {
		want = supported
	}
	return quantile(v, want)
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// setupPasses is how many times an untraced run sets the workload up; the
// reported setup_s is the median, and the last pass's instance is measured.
const setupPasses = 3

// minReps is the fewest timed repetitions a run reports a median over.
const minReps = 3

// timedRep runs one repetition and returns its result, wall and CPU seconds.
func timedRep(e *env, inst instance, parent int) (repResult, float64, float64, error) {
	cpu0, t0 := cpuSeconds(), time.Now()
	rr, err := inst.rep(e, parent)
	wall := time.Since(t0).Seconds()
	return rr, wall, cpuSeconds() - cpu0, err
}

// runUntraced measures the end-to-end metrics: set up (several times, for a
// steady setup_s), then repeat the fixed work until the time budget is spent.
func runUntraced(e *env, w workloadDef, seconds float64) ([]metricValue, error) {
	var setups []float64
	var inst instance
	for pass := 0; pass < setupPasses; pass++ {
		if inst != nil {
			inst.close()
			inst = nil
			// Return the previous pass's memory so peak RSS reflects one
			// set-up workload, not three.
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		var err error
		if inst, err = w.setup(e); err != nil {
			return nil, fmt.Errorf("%s: setup: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer inst.close()
	runtime.GC()

	var rate, cpuPer, qos, eff []float64
	start := time.Now()
	for len(rate) < minReps || time.Since(start).Seconds() < seconds {
		rr, wall, cpu, err := timedRep(e, inst, 0)
		if err != nil {
			return nil, fmt.Errorf("%s: repetition %d: %w", w.name, len(rate), err)
		}
		rate = append(rate, rr.work/wall)
		cpuPer = append(cpuPer, cpu*1e6/rr.work)
		qos = append(qos, rr.qos)
		eff = append(eff, rr.eff)
	}
	inst.finish(e)
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	return []metricValue{
		medianOf(endToEnd, "setup_s", setups...),
		medianOf(endToEnd, "work_per_s", rate...),
		medianOf(endToEnd, "cpu_us_per_work", cpuPer...),
		medianOf(endToEnd, "peak_rss_mb", rss),
		medianOf(endToEnd, "qos_figure", qos...),
		medianOf(endToEnd, "efficiency_figure", eff...),
	}, nil
}

// runTraced measures the per-layer metrics: the workload's own repetitions
// alternate untraced and traced (their ratio is the tracing overhead), then
// the layer ledger runs its probes, every one a span.
func runTraced(e *env, w workloadDef, seconds float64) ([]metricValue, *tracer, error) {
	tr := newTracer(w.name)
	inst, err := w.setup(e)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: setup: %w", w.name, err)
	}
	var plain, traced []float64
	start := time.Now()
	for len(traced) < minReps || time.Since(start).Seconds() < seconds/2 {
		e.tr = nil
		_, wall, _, err := timedRep(e, inst, 0)
		if err != nil {
			inst.close()
			return nil, nil, fmt.Errorf("%s: repetition: %w", w.name, err)
		}
		plain = append(plain, wall)
		e.tr = tr
		id := tr.begin("bench.rep", 0)
		_, wall, _, err = timedRep(e, inst, id)
		tr.end(id, 1)
		if err != nil {
			inst.close()
			return nil, nil, fmt.Errorf("%s: traced repetition: %w", w.name, err)
		}
		traced = append(traced, wall)
	}
	inst.finish(e)
	inst.close()
	debug.FreeOSMemory()

	self := tr.selfTimes()
	var repTotal int64
	for _, s := range tr.spans {
		if s.Name == "bench.rep" {
			repTotal += s.End - s.Start
		}
	}
	out := []metricValue{
		medianOf(perLayer, "bench.rep_wall_s", plain...),
		medianOf(perLayer, "bench.trace_overhead_frac", median(traced)/median(plain)-1),
		medianOf(perLayer, "bench.harness_self_frac", float64(self["bench.rep"])/float64(repTotal)),
	}
	ledger, err := runLedger(e, tr)
	if err != nil {
		return nil, nil, fmt.Errorf("ledger: %w", err)
	}
	return append(out, ledger...), tr, nil
}

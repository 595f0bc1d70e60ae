package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/policy"
	"repro/internal/workload"
)

// Job is one simulation run as plain data: the machine, the app slots, the
// policy constructor and the cycles (increasing) at which the run pauses and
// ColdRestarts under a fresh NewPolicy() — rolling restarts; none for a
// straight run. Key names what NewPolicy builds, the one input the job
// cannot show as a value (the caller vouches that equal keys build equal
// policies); the warm pool keys the job by it together with everything else
// the job holds (see poolKey). An empty key bypasses the pool. Every
// simulation fan-out is a list of Jobs handed to RunJobs.
type Job struct {
	Config    Config
	Specs     []AppSpec
	NewPolicy func() policy.Policy
	Restarts  []uint64
	Key       string
}

// poolKey is a job's identity in the warm pool: what its NewPolicy builds,
// its machine with the fields that cannot change results cleared, and a
// digest of its inputs. Jobs with equal keys are the same deterministic
// computation.
type poolKey struct {
	policy string
	cfg    Config
	inputs [sha256.Size]byte
}

// poolKey derives the job's warm-pool key. The inputs digest covers every
// spec by value — profiles dereferenced, arrival times and slow windows
// included — and the restart cycles. A slot's recorded Trace is the one
// input named by reference, by its template's address and cursor, so two
// opens of a trace never share an entry; traces returns those templates,
// which the pool entry holds so no other trace can reuse the address.
func (j Job) poolKey() (k poolKey, traces []*workload.TraceStream) {
	var buf []byte
	buf = appendValue(buf, reflect.ValueOf(j.Specs), &traces)
	buf = appendValue(buf, reflect.ValueOf(j.Restarts), &traces)
	return poolKey{policy: j.Key, cfg: j.Config.poolIdentity(), inputs: sha256.Sum256(buf)}, traces
}

var traceStreamType = reflect.TypeFor[*workload.TraceStream]()

// appendValue appends an unambiguous encoding of v to buf: numbers by their
// bits, strings, slices and arrays length-prefixed, pointers as a nil marker
// or what they point to, interfaces as their dynamic type's name and value,
// structs field by field. Two values encode alike exactly when they are
// equal as data, so a field added to a spec or a profile joins the key with
// no edit here.
func appendValue(buf []byte, v reflect.Value, traces *[]*workload.TraceStream) []byte {
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			return append(buf, 1)
		}
		return append(buf, 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return binary.LittleEndian.AppendUint64(buf, uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return binary.LittleEndian.AppendUint64(buf, v.Uint())
	case reflect.Float32, reflect.Float64:
		return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.Float()))
	case reflect.String:
		return appendString(buf, v.String())
	case reflect.Slice, reflect.Array:
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v.Len()))
		for i := range v.Len() {
			buf = appendValue(buf, v.Index(i), traces)
		}
		return buf
	case reflect.Pointer:
		if v.IsNil() {
			return append(buf, 0)
		}
		if v.Type() == traceStreamType {
			ts := v.Interface().(*workload.TraceStream)
			*traces = append(*traces, ts)
			buf = binary.LittleEndian.AppendUint64(append(buf, 2), uint64(v.Pointer()))
			return binary.LittleEndian.AppendUint64(buf, uint64(ts.Pos()))
		}
		return appendValue(append(buf, 1), v.Elem(), traces)
	case reflect.Interface:
		if v.IsNil() {
			return append(buf, 0)
		}
		return appendValue(appendString(append(buf, 1), v.Elem().Type().String()), v.Elem(), traces)
	case reflect.Struct:
		for i := range v.NumField() {
			buf = appendValue(buf, v.Field(i), traces)
		}
		return buf
	}
	panic(fmt.Sprintf("sim: a warm-pool key cannot hold a %s", v.Type()))
}

func appendString(buf []byte, s string) []byte {
	return append(binary.LittleEndian.AppendUint64(buf, uint64(len(s))), s...)
}

// run simulates the job, straight or through its cold restarts. RunUntil
// pauses only at scheduler pop boundaries, so a restarted run is as
// deterministic as a straight one.
func (j Job) run() (Result, error) {
	if len(j.Restarts) == 0 {
		return RunMix(j.Config, j.Specs, j.NewPolicy())
	}
	s, err := New(j.Config, j.Specs, j.NewPolicy())
	if err != nil {
		return Result{}, err
	}
	for _, r := range j.Restarts {
		if err := s.RunUntil(r); err != nil {
			return Result{}, err
		}
		if err := s.ColdRestart(j.NewPolicy()); err != nil {
			return Result{}, err
		}
	}
	return s.Run()
}

// RunJobs runs every job on at most workers goroutines (<= 0 = GOMAXPROCS,
// the one worker rule of every fan-out) and hands each outcome to done(i,
// res, err) on the worker that ran job i, so a caller holds only what it
// keeps of each result. A keyed job runs through pool (nil disables reuse):
// a key listed twice is computed once and both done calls see that one
// read-only Result. done writes only to state addressed by i, and returns
// the error that stops the list (usually err, wrapped with what names job
// i); RunJobs returns the lowest-index one. A fan-out is one list per
// dependency phase: RunJobs is never entered from inside a job or a done.
func RunJobs(jobs []Job, workers int, pool *WarmPool, done func(i int, res Result, err error) error) error {
	return forEach(len(jobs), workers, func(i int) error {
		res, err := pool.result(jobs[i])
		return done(i, res, err)
	})
}

// forEach is RunJobs' claim loop: fn(i) for every i in [0, n) on at most
// workers goroutines (<= 0 = GOMAXPROCS; 1 runs inline). Indices are claimed
// in increasing order and claiming stops at the first error, so every index
// below a failed one is already in flight and the lowest-index error wins.
func forEach(n, workers int, fn func(int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := range n {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	next.Store(-1)
	var failed atomic.Bool
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				if errs[i] = fn(i); errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// WarmPool memoizes completed run results by job identity (poolKey) across a
// sweep: the calibrations and isolation baselines several experiments share,
// and repeated cluster node runs. A hit returns the first computation's
// Result verbatim and shared: a finished run is read-only (Run sorts its
// samples before returning), and consumers must not modify it. The pool
// holds every entry for its lifetime, so scope one to an invocation or
// sweep, and pass nil (no reuse) where no job can repeat. RunJobs is its one
// reader; it is safe for concurrent use, and concurrent lookups of one key
// run it once.
type WarmPool struct {
	mu      sync.Mutex
	results map[poolKey]*poolEntry
}

type poolEntry struct {
	once   sync.Once
	val    Result
	err    error
	traces []*workload.TraceStream // the key's trace templates, kept alive
}

// NewWarmPool returns an empty pool.
func NewWarmPool() *WarmPool {
	return &WarmPool{results: make(map[poolKey]*poolEntry)}
}

// CheckpointCount returns 0: the pool memoizes run results only.
//
// Deprecated: kept only until bench/ stops reading it.
func (p *WarmPool) CheckpointCount() int { return 0 }

// ResultCount returns how many memoized run results the pool holds (for
// tests and diagnostics).
func (p *WarmPool) ResultCount() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.results)
}

// result returns the memoized result of j, running it on first use; an
// unkeyed job is not memoized.
func (p *WarmPool) result(j Job) (Result, error) {
	if p == nil || j.Key == "" {
		return j.run()
	}
	k, traces := j.poolKey()
	p.mu.Lock()
	e, ok := p.results[k]
	if !ok {
		e = &poolEntry{traces: traces}
		p.results[k] = e
	}
	p.mu.Unlock()
	e.once.Do(func() { e.val, e.err = j.run() })
	if e.err != nil {
		return Result{}, e.err
	}
	return e.val, nil
}

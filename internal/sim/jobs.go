package sim

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/policy"
)

// Job is one simulation run as a value: the machine, the app slots, the
// policy constructor and the cycles (increasing) at which the run pauses and
// ColdRestarts under a fresh NewPolicy() — rolling restarts; none for a
// straight run. Key is the run's complete identity in the warm pool: jobs
// with equal non-empty keys must be the same deterministic computation (the
// caller vouches for what NewPolicy builds, which no key can see); an empty
// key bypasses the pool. Every simulation fan-out is a list of Jobs handed to
// RunJobs.
type Job struct {
	Config    Config
	Specs     []AppSpec
	NewPolicy func() policy.Policy
	Restarts  []uint64
	Key       string
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
		res, err := pool.result(jobs[i].Key, jobs[i].run)
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

// WarmPool memoizes completed run results by job key across a sweep: the
// calibrations and isolation baselines several experiments share, and
// repeated cluster node runs. A hit returns the first computation's Result
// verbatim and shared: a finished run is read-only (Run sorts its samples
// before returning), and consumers must not modify it. The pool holds every
// entry for its lifetime, so scope one to an invocation or sweep, and pass
// nil (no reuse) where no key can repeat. RunJobs is its one reader; it is
// safe for concurrent use, and concurrent lookups of one key run it once.
type WarmPool struct {
	mu      sync.Mutex
	results map[string]*poolEntry
}

type poolEntry struct {
	once sync.Once
	val  Result
	err  error
}

// NewWarmPool returns an empty pool.
func NewWarmPool() *WarmPool {
	return &WarmPool{results: make(map[string]*poolEntry)}
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

// result returns the memoized result for key, computing it on first use; an
// empty key is not memoized.
func (p *WarmPool) result(key string, compute func() (Result, error)) (Result, error) {
	if p == nil || key == "" {
		return compute()
	}
	p.mu.Lock()
	e, ok := p.results[key]
	if !ok {
		e = &poolEntry{}
		p.results[key] = e
	}
	p.mu.Unlock()
	e.once.Do(func() { e.val, e.err = compute() })
	if e.err != nil {
		return Result{}, e.err
	}
	return e.val, nil
}

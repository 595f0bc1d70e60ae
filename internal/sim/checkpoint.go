package sim

import (
	"fmt"
	"sync"

	"repro/internal/cache"
	"repro/internal/policy"
	"repro/internal/workload"
)

// This file implements warm-state checkpointing: a simulation can be paused
// at a scheduler boundary (Simulator.RunUntil), deep-copied into a
// Checkpoint, and forked any number of times — each fork finishing the run
// independently and bit-identically to a run that never paused. Sweeps use
// this to pay for the shared warmup prefix (warm LLC/L1/L2 contents, UMON
// tags, queue state, RNG cursors) once instead of once per sweep point; see
// DESIGN.md §8 for the checkpoint contract.

// Checkpoint is an immutable deep snapshot of a paused simulation. It may be
// forked concurrently: forking only reads the snapshot.
type Checkpoint struct {
	// src is the template simulator: every application runtime and the
	// policy, but no LLC of its own (it never runs).
	src *Simulator
	// sealed is the LLC's immutable delta image. Forking it costs chunk-count
	// bookkeeping instead of an LLC-sized copy, and is a pure read — safe
	// from any number of goroutines.
	sealed cache.Sealed
}

// forkWithLLC deep-copies the simulator — every application runtime and the
// policy — binding the copy to the given (already forked) shared LLC.
// Scheduler heap state is not copied: it is a pure function of the per-app
// clocks and is rebuilt when the fork resumes. It only reads s.
func (s *Simulator) forkWithLLC(llc cache.Cache) (*Simulator, error) {
	n := &Simulator{
		cfg:              s.cfg,
		llc:              llc,
		policy:           s.policy.Clone(),
		nextReconfig:     s.nextReconfig,
		reconfigurations: s.reconfigurations,
		targetSamples:    append([]float64(nil), s.targetSamples...),
		targetSampleN:    s.targetSampleN,
		measureArmed:     s.measureArmed,
	}
	for _, a := range s.apps {
		ca, err := a.clone(llc)
		if err != nil {
			return nil, err
		}
		n.apps = append(n.apps, ca)
	}
	n.view = &simView{s: n}
	return n, nil
}

// Checkpoint captures the simulation's complete mutable state. The simulator
// must be paused (between Run/RunUntil calls); the returned snapshot is
// independent of the simulator, which may keep running afterwards. It fails
// only when an application slot carries a non-clonable custom arrival
// process.
func (s *Simulator) Checkpoint() (*Checkpoint, error) {
	if s.running != nil {
		return nil, fmt.Errorf("sim: checkpoint requires a paused simulator")
	}
	// Seal the LLC once, here, on the caller's goroutine: the checkpoint keeps
	// the immutable image and every later fork is a pure read of it. The live
	// simulator continues as a copy-on-write fork of its own snapshot,
	// materialising storage chunks as it dirties them.
	sealed := s.llc.Seal()
	snap, err := s.forkWithLLC(nil)
	if err != nil {
		return nil, err
	}
	return &Checkpoint{src: snap, sealed: sealed}, nil
}

// fork builds a fresh runnable simulator from the checkpoint: the template's
// applications and policy bound to a copy-on-write fork of the sealed LLC.
// Only reads the snapshot, so concurrent forks are safe.
func (cp *Checkpoint) fork() (*Simulator, error) {
	return cp.src.forkWithLLC(cp.sealed.Fork())
}

// RunFromCheckpoint forks the checkpoint and runs the fork to completion.
// The result is bit-identical to running the original configuration straight
// through (locked by the differential tests in checkpoint_test.go).
func RunFromCheckpoint(cp *Checkpoint) (Result, error) {
	s, err := cp.fork()
	if err != nil {
		return Result{}, err
	}
	return s.Run()
}

// ErrScheduleSwapUnsafe marks a refused schedule swap: the checkpoint cannot
// prove the fork would be bit-identical (a draw was consumed past a
// quiescent prefix, the target schedule is stateful, or the arrival process
// cannot be retimed). Callers fall back to a full re-warm on this error —
// and only on this error, so genuine engine failures still surface.
var ErrScheduleSwapUnsafe = fmt.Errorf("sim: schedule swap cannot be proven bit-identical; re-warm instead")

// swapRefused wraps a refusal reason with the ErrScheduleSwapUnsafe sentinel.
func swapRefused(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrScheduleSwapUnsafe, fmt.Sprintf(format, args...))
}

// RunFromCheckpointWithSchedule forks the checkpoint, swaps every
// latency-critical slot's load schedule for sched, and runs the fork to
// completion. This is the sweep-point fork: one checkpoint warmed through a
// schedule's quiescent prefix (multiplier 1) fans out to every sweep
// magnitude. The swap is refused — with an error wrapping
// ErrScheduleSwapUnsafe, so callers can fall back to a full re-warm —
// unless it is provably bit-identical: both the checkpoint's schedule and
// sched must still have been quiescent at every arrival draw the warm
// prefix consumed (workload.ScheduleSpec.QuiescentUntil).
func RunFromCheckpointWithSchedule(cp *Checkpoint, sched workload.ScheduleSpec) (Result, error) {
	if err := sched.Validate(); err != nil {
		return Result{}, err
	}
	s, err := cp.fork()
	if err != nil {
		return Result{}, err
	}
	for _, a := range s.apps {
		if !a.isLC() {
			continue
		}
		if a.spec.Arrivals != nil {
			return Result{}, swapRefused("app %q replays an explicit arrival stream", a.spec.Name())
		}
		if q := a.spec.Sched.QuiescentUntil(); a.maxDrawPrev >= q {
			return Result{}, swapRefused("app %q consumed an arrival draw at cycle %d, past its warm schedule's quiescent prefix (%d)",
				a.spec.Name(), a.maxDrawPrev, q)
		}
		if q := sched.QuiescentUntil(); a.maxDrawPrev >= q {
			return Result{}, swapRefused("app %q consumed an arrival draw at cycle %d, past the target schedule's quiescent prefix (%d)",
				a.spec.Name(), a.maxDrawPrev, q)
		}
		arr, ok := workload.RetimeArrivals(a.arrivals, sched)
		if !ok {
			return Result{}, swapRefused("app %q's arrival process (%T) cannot be retimed to %s", a.spec.Name(), a.arrivals, sched)
		}
		a.arrivals = arr
		a.spec.Sched = sched
	}
	return s.Run()
}

// WarmCheckpoint builds a simulator for the given configuration, runs it up
// to warmCycle, and returns the checkpoint measured runs fork from. A warm
// cycle past the run's natural end simply checkpoints the completed run.
func WarmCheckpoint(cfg Config, specs []AppSpec, pol policy.Policy, warmCycle uint64) (*Checkpoint, error) {
	s, err := New(cfg, specs, pol)
	if err != nil {
		return nil, err
	}
	if err := s.RunUntil(warmCycle); err != nil {
		return nil, err
	}
	return s.Checkpoint()
}

// WarmPool memoizes expensive, exactly-repeated computations across a sweep:
// completed run results (calibration and isolation baselines that several
// experiments request with identical inputs) and warm checkpoints (shared
// warmup prefixes forked per sweep point). Keys must capture the complete
// identity of the computation — configuration, workload specs, policy and
// seeds — because a pool hit returns the first computation's output verbatim
// (results are deep-copied per caller, so consumers can mutate them freely).
//
// The pool trades memory for time and holds every entry for its lifetime
// (eviction would be safe — recomputation is deterministic — but nothing
// needs it yet): scope a pool to one invocation or sweep, as the cmds do,
// and prefer nil (no reuse, nothing retained) where no key can repeat.
// A nil *WarmPool is valid and disables reuse: every lookup just runs the
// compute function. All methods are safe for concurrent use, and concurrent
// lookups of one key run its compute function exactly once.
type WarmPool struct {
	mu      sync.Mutex
	results map[string]*poolEntry[Result]
	checks  map[string]*poolEntry[*Checkpoint]
}

type poolEntry[T any] struct {
	once sync.Once
	val  T
	err  error
}

// NewWarmPool returns an empty pool.
func NewWarmPool() *WarmPool {
	return &WarmPool{
		results: make(map[string]*poolEntry[Result]),
		checks:  make(map[string]*poolEntry[*Checkpoint]),
	}
}

func poolGet[T any](p *WarmPool, m map[string]*poolEntry[T], key string, compute func() (T, error)) (T, error) {
	p.mu.Lock()
	e, ok := m[key]
	if !ok {
		e = &poolEntry[T]{}
		m[key] = e
	}
	p.mu.Unlock()
	e.once.Do(func() { e.val, e.err = compute() })
	return e.val, e.err
}

// CheckpointCount returns how many warm checkpoints the pool holds (for
// tests and diagnostics).
func (p *WarmPool) CheckpointCount() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.checks)
}

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

// Result returns the memoized run result for key, computing it on first use.
// The returned Result is a deep copy, so callers may mutate it (or sort its
// samples through percentile queries) without affecting other consumers.
func (p *WarmPool) Result(key string, compute func() (Result, error)) (Result, error) {
	if p == nil {
		return compute()
	}
	res, err := poolGet(p, p.results, key, compute)
	if err != nil {
		return Result{}, err
	}
	return res.Clone(), nil
}

// Checkpoint returns the memoized warm checkpoint for key, computing it on
// first use. Checkpoints are immutable and fork-on-use, so the same pointer
// is shared by all consumers.
func (p *WarmPool) Checkpoint(key string, compute func() (*Checkpoint, error)) (*Checkpoint, error) {
	if p == nil {
		return compute()
	}
	return poolGet(p, p.checks, key, compute)
}

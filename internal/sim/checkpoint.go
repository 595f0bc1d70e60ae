package sim

import (
	"fmt"
	"sync"

	"repro/internal/cache"
	"repro/internal/policy"
)

// This file implements warm-state checkpointing: a simulation can be paused
// at a scheduler boundary (Simulator.RunUntil), deep-copied into a
// Checkpoint, and forked any number of times — each fork finishing the run
// independently and bit-identically to a run that never paused. No
// production path forks: every experiment runs straight through, and the
// engine is kept for its measurements and tests; see DESIGN.md §8 for the
// checkpoint contract.

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

// WarmPool memoizes completed run results across a sweep: calibration and
// isolation baselines that several experiments request with identical
// inputs. Keys must capture the complete identity of the computation —
// configuration, workload specs, policy and seeds — because a pool hit
// returns the first computation's output verbatim (results are deep-copied
// per caller, so consumers can mutate them freely).
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

// Result returns the memoized run result for key, computing it on first use.
// The returned Result is a deep copy, so callers may mutate it (or sort its
// samples through percentile queries) without affecting other consumers.
func (p *WarmPool) Result(key string, compute func() (Result, error)) (Result, error) {
	if p == nil {
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
	return e.val.Clone(), nil
}

package sim

import (
	"fmt"
	"sync"

	"repro/internal/policy"
)

// Checkpoint records a simulation's inputs so the run can be finished again
// elsewhere. It copies no run state: RunFromCheckpoint re-runs the recorded
// inputs from cycle 0, which the pause contract (a paused-and-resumed run
// retraces the straight run, see DESIGN.md §8) makes bit-identical to
// resuming the paused simulator.
//
// Deprecated: no run checkpoints; kept only until bench/ stops measuring it.
type Checkpoint struct {
	cfg    Config
	specs  []AppSpec
	policy policy.Policy
}

// Checkpoint records the simulator's inputs. It fails while a run is in
// progress, after a ColdRestart (the restarted state is not a function of
// the inputs), and for a slot with explicit AppSpec.Arrivals, which the run
// consumes in place.
//
// Deprecated: see Checkpoint.
func (s *Simulator) Checkpoint() (*Checkpoint, error) {
	if s.running != nil {
		return nil, fmt.Errorf("sim: checkpoint requires a paused simulator")
	}
	if s.initial == nil {
		return nil, fmt.Errorf("sim: checkpoint after a cold restart cannot be re-run from its inputs")
	}
	cp := &Checkpoint{cfg: s.cfg, policy: s.initial}
	cp.cfg.Trace = nil
	for _, a := range s.apps {
		if a.spec.Arrivals != nil {
			return nil, fmt.Errorf("sim: app %q replays explicit arrivals, which its run consumes; it cannot be checkpointed", a.spec.Name())
		}
		cp.specs = append(cp.specs, a.spec)
	}
	return cp, nil
}

// RunFromCheckpoint runs the checkpoint's inputs to completion. The result
// is bit-identical to running the original configuration straight through.
// It only reads the checkpoint, so concurrent and repeated calls are safe.
//
// Deprecated: see Checkpoint.
func RunFromCheckpoint(cp *Checkpoint) (Result, error) {
	return RunMix(cp.cfg, cp.specs, cp.policy.Clone())
}

// WarmPool memoizes completed run results across a sweep: calibration and
// isolation baselines that several experiments request with identical
// inputs. Keys must capture the complete identity of the computation —
// configuration, workload specs, policy and seeds — because a pool hit
// returns the first computation's output verbatim. Every hit shares that one
// Result: a finished run is read-only (Run sorts its samples before
// returning, so queries on them only read), and consumers must not modify
// it.
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
// Every caller gets the same read-only Result, safe to query concurrently.
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
	return e.val, nil
}

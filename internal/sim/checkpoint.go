package sim

import (
	"fmt"

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
// progress and after a ColdRestart (the restarted state is not a function of
// the inputs).
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

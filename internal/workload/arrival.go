package workload

import (
	"fmt"
	"math/rand"
)

// ArrivalProcess generates request arrival times for an open-loop latency-
// critical server. The paper's methodology (Section 3.2) uses exponential
// interarrival times (a Markov input process) throttled to a configurable
// rate, plus a fixed interrupt-coalescing delay added to each arrival.
type ArrivalProcess interface {
	// Next returns the arrival time (in cycles) of the next request, given the
	// previous arrival time.
	Next(prev uint64) uint64
}

// ModulatedArrivals produces exponential interarrival times whose
// instantaneous rate is the base rate (1/MeanInterarrival) multiplied by a
// load schedule evaluated at the previous arrival time — a piecewise
// approximation of a non-homogeneous Poisson process that stays exactly
// reproducible: one exponential draw per arrival regardless of the schedule,
// so the same seed yields matched randomness across schedules. The constant
// schedule's multiplier is exactly 1, which makes it the plain Poisson
// process of Section 3.2.
type ModulatedArrivals struct {
	MeanInterarrival float64
	rng              *rand.Rand
	eval             *ScheduleEval
}

// NewModulatedArrivals returns an arrival process whose rate follows spec.
// Both the simulator's per-slot streams and the cluster front-end's global
// query stream construct their processes here, so the two layers can never
// drift apart: a cluster front-end seeded with a node's arrival seeds
// generates exactly the stream that node would have generated for itself.
// seed drives the exponential draws and schedSeed the schedule's own
// randomness (MMPP dwell times); callers split them from one parent seed.
func NewModulatedArrivals(meanInterarrival float64, seed uint64, spec ScheduleSpec, schedSeed uint64) (*ModulatedArrivals, error) {
	if meanInterarrival <= 0 {
		return nil, fmt.Errorf("workload: mean interarrival must be positive, got %v", meanInterarrival)
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &ModulatedArrivals{
		MeanInterarrival: meanInterarrival,
		rng:              NewRand(seed),
		eval:             spec.NewEval(schedSeed),
	}, nil
}

// Next implements ArrivalProcess.
func (m *ModulatedArrivals) Next(prev uint64) uint64 {
	gap := m.rng.ExpFloat64() * m.MeanInterarrival / m.eval.Multiplier(prev)
	if gap < 1 {
		gap = 1
	}
	// Bound the gap so a low-rate phase cannot push arrival clocks toward
	// uint64 wraparound. The clamp only binds for mean interarrivals far
	// beyond anything the simulator produces (exponential draws stay under
	// ~45x the mean, and the largest mean is calibration's 1e12 cycles), so
	// it never perturbs the constant schedule.
	if gap > 1e14 {
		gap = 1e14
	}
	return prev + uint64(gap)
}

// DrawArrivals materialises the first n arrival times of a process using the
// same protocol the simulator's enqueue loop uses (the first arrival is
// Next(0), each later one is Next(previous)), so a drawn-then-replayed stream
// is indistinguishable from the process generating arrivals in place.
func DrawArrivals(p ArrivalProcess, n int) []uint64 {
	out := make([]uint64, n)
	prev := uint64(0)
	for i := range out {
		prev = p.Next(prev)
		out[i] = prev
	}
	return out
}

// replayExhaustedGap is the gap ReplayArrivals reports for every call past
// the end of its stream. A correctly provisioned consumer never sees it: the
// simulator stops generating requests at the slot's request count, and rejects
// at construction any slot whose replay stream holds fewer times than the run
// needs (see sim.AppSpec). The sentinel exists so that an off-by-one consumer
// still moves its clock strictly forward instead of replaying the final time
// silently.
const replayExhaustedGap = 1 << 40

// ReplayArrivals replays a pre-generated arrival sequence verbatim — the
// arrival-splitting adapter of the cluster layer: a front-end draws one global
// query stream, splits it into per-node leaf streams, and each node's
// simulation consumes its share through a ReplayArrivals instance. Because
// times are returned untouched, a single-node split reproduces the generating
// process bit for bit.
//
// Exhaustion is explicit: once Remaining() reaches 0, every further Next call
// returns prev+replayExhaustedGap.
type ReplayArrivals struct {
	times []uint64
	pos   int
}

// NewReplayArrivals returns a process that replays times in order. times must
// be sorted ascending (the order requests arrive in).
func NewReplayArrivals(times []uint64) *ReplayArrivals {
	return &ReplayArrivals{times: times}
}

// Next implements ArrivalProcess.
func (r *ReplayArrivals) Next(prev uint64) uint64 {
	if r.pos >= len(r.times) {
		return prev + replayExhaustedGap
	}
	t := r.times[r.pos]
	r.pos++
	return t
}

// Remaining returns how many replay times have not been consumed yet.
func (r *ReplayArrivals) Remaining() int { return len(r.times) - r.pos }

// MeanInterarrivalForLoad converts a target offered load rho (0 < rho < 1) and
// a mean service time (cycles) into the mean interarrival time that produces
// that load: rho = lambda/mu = meanService/meanInterarrival.
func MeanInterarrivalForLoad(meanServiceCycles float64, load float64) (float64, error) {
	if load <= 0 || load >= 1 {
		return 0, fmt.Errorf("workload: load must be in (0,1), got %v", load)
	}
	if meanServiceCycles <= 0 {
		return 0, fmt.Errorf("workload: mean service time must be positive, got %v", meanServiceCycles)
	}
	return meanServiceCycles / load, nil
}

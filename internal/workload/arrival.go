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

// PoissonArrivals produces exponential interarrival times with the given mean
// (in cycles).
type PoissonArrivals struct {
	MeanInterarrival float64
	rng              *rand.Rand
}

// NewPoissonArrivals returns a Poisson arrival process with the given mean
// interarrival time in cycles.
func NewPoissonArrivals(meanInterarrival float64, seed uint64) (*PoissonArrivals, error) {
	if meanInterarrival <= 0 {
		return nil, fmt.Errorf("workload: mean interarrival must be positive, got %v", meanInterarrival)
	}
	return &PoissonArrivals{MeanInterarrival: meanInterarrival, rng: NewRand(seed)}, nil
}

// Next implements ArrivalProcess.
func (p *PoissonArrivals) Next(prev uint64) uint64 {
	gap := p.rng.ExpFloat64() * p.MeanInterarrival
	if gap < 1 {
		gap = 1
	}
	return prev + uint64(gap)
}

// ModulatedArrivals produces exponential interarrival times whose
// instantaneous rate is the base rate (1/MeanInterarrival) multiplied by a
// load schedule evaluated at the previous arrival time — a piecewise
// approximation of a non-homogeneous Poisson process that stays exactly
// reproducible: one exponential draw per arrival regardless of the schedule,
// so the same seed yields matched randomness across schedules. With the
// constant schedule it generates the same arrival sequence as
// PoissonArrivals seeded identically, bit for bit.
type ModulatedArrivals struct {
	MeanInterarrival float64
	rng              *rand.Rand
	eval             *ScheduleEval
}

// NewModulatedArrivals returns an arrival process whose rate follows spec.
// seed drives the exponential draws (exactly like NewPoissonArrivals) and
// schedSeed drives the schedule's own randomness (MMPP dwell times).
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
	// ~37x the mean), so it never perturbs the constant-schedule match with
	// PoissonArrivals.
	if gap > 1e14 {
		gap = 1e14
	}
	return prev + uint64(gap)
}

// NewScheduledArrivals builds the arrival process a latency-critical request
// stream is driven by: plain Poisson for the constant schedule (so
// pre-schedule seeds reproduce bit for bit) and the rate-modulated process
// otherwise. Both the simulator's per-slot streams and the cluster front-end's
// global query stream construct their processes through this one factory, so
// the two layers can never drift apart: a cluster front-end seeded with a
// node's arrival seeds generates exactly the stream that node would have
// generated for itself. seed drives the exponential draws and schedSeed the
// schedule's own randomness (MMPP dwells); callers split them from one parent
// seed.
func NewScheduledArrivals(meanInterarrival float64, seed uint64, spec ScheduleSpec, schedSeed uint64) (ArrivalProcess, error) {
	if spec.IsConstant() {
		return NewPoissonArrivals(meanInterarrival, seed)
	}
	return NewModulatedArrivals(meanInterarrival, seed, spec, schedSeed)
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
// silently — and Exhausted()/Overruns() make the condition observable rather
// than a quiet repetition.
const replayExhaustedGap = 1 << 40

// ReplayArrivals replays a pre-generated arrival sequence verbatim — the
// arrival-splitting adapter of the cluster layer: a front-end draws one global
// query stream, splits it into per-node leaf streams, and each node's
// simulation consumes its share through a ReplayArrivals instance. Because
// times are returned untouched, a single-node split reproduces the generating
// process bit for bit.
//
// Exhaustion is explicit: exactly Len() recorded times exist, the Len()+1-th
// Next call (and every later one) returns prev+replayExhaustedGap and bumps
// Overruns().
type ReplayArrivals struct {
	times []uint64
	pos   int
	// over counts Next calls made after the recorded times ran out. It is
	// diagnostic state, not a cursor: each overrun call returns the sentinel
	// gap relative to the caller's prev.
	over int
}

// NewReplayArrivals returns a process that replays times in order. times must
// be sorted ascending (the order requests arrive in).
func NewReplayArrivals(times []uint64) *ReplayArrivals {
	return &ReplayArrivals{times: times}
}

// Next implements ArrivalProcess.
func (r *ReplayArrivals) Next(prev uint64) uint64 {
	if r.pos >= len(r.times) {
		r.over++
		return prev + replayExhaustedGap
	}
	t := r.times[r.pos]
	r.pos++
	return t
}

// Len returns the total number of recorded arrival times.
func (r *ReplayArrivals) Len() int { return len(r.times) }

// Remaining returns how many replay times have not been consumed yet.
func (r *ReplayArrivals) Remaining() int { return len(r.times) - r.pos }

// Exhausted reports whether every recorded time has been consumed.
func (r *ReplayArrivals) Exhausted() bool { return r.pos >= len(r.times) }

// Overruns returns how many Next calls were answered with the exhaustion
// sentinel rather than a recorded time. Any nonzero value means the consumer
// asked for more arrivals than were provisioned.
func (r *ReplayArrivals) Overruns() int { return r.over }

// UniformArrivals produces deterministic, evenly spaced arrivals; useful in
// tests and for isolating queueing effects.
type UniformArrivals struct {
	Interarrival uint64
}

// Next implements ArrivalProcess.
func (u UniformArrivals) Next(prev uint64) uint64 {
	if u.Interarrival == 0 {
		return prev + 1
	}
	return prev + u.Interarrival
}

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

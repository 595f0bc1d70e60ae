package workload

import "fmt"

// ArrivalTimes returns the first n arrival times (cycles) of a latency-critical
// slot's open-loop request stream: exponential interarrival times — the Markov
// input process of the paper's methodology (Section 3.2) — whose
// instantaneous rate is the base rate 1/meanInterarrival multiplied by the
// load schedule evaluated at the previous arrival. That is a piecewise
// approximation of a non-homogeneous Poisson process that stays exactly
// reproducible: one exponential draw per arrival regardless of the schedule,
// so the same seed yields matched randomness across schedules, and the
// constant schedule's multiplier is exactly 1 (plain Poisson).
//
// It is the one place the process is seeded and drawn: the simulator's
// per-slot streams and the cluster front-end's global query stream both come
// from here, so a front-end given a slot's seed draws exactly the stream that
// slot would draw for itself. seed is the parent seed: SplitSeed(seed, 7)
// drives the exponential draws and SplitSeed(seed, 11) the schedule's own
// randomness (MMPP dwell times). The first n times of a longer stream are
// the n-stream.
func ArrivalTimes(meanInterarrival float64, seed uint64, sched ScheduleSpec, n int) ([]uint64, error) {
	if meanInterarrival <= 0 {
		return nil, fmt.Errorf("workload: mean interarrival must be positive, got %v", meanInterarrival)
	}
	if err := sched.Validate(); err != nil {
		return nil, err
	}
	rng := NewRand(SplitSeed(seed, 7))
	eval := sched.NewEval(SplitSeed(seed, 11))
	times := make([]uint64, n)
	prev := uint64(0)
	for i := range times {
		gap := rng.ExpFloat64() * meanInterarrival / eval.Multiplier(prev)
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
		prev += uint64(gap)
		times[i] = prev
	}
	return times, nil
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

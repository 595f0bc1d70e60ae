// Package stats provides the statistical machinery used throughout the Ubik
// reproduction: percentiles, tail means (the paper's tail-latency metric),
// empirical CDFs, and the weighted-speedup metric used for batch applications.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by statistics that are undefined on empty samples.
var ErrEmpty = errors.New("stats: empty sample")

// Sample accumulates floating-point observations and answers summary queries.
// The zero value is an empty sample ready for use.
//
// Order-statistic queries (Min, Max, Percentile, TailMean, Values, CDF) sort
// the observations in place on first use, so on an unsorted sample a query
// writes. Once Sort has run and no Add follows, every query only reads, and
// any number of goroutines may query the sample concurrently: that is how a
// finished run hands its samples out (sim.Simulator.Run sorts each one before
// returning).
type Sample struct {
	values []float64
	sorted bool
	sum    float64
}

// NewSample returns a sample pre-sized for n observations.
func NewSample(n int) *Sample {
	return &Sample{values: make([]float64, 0, n)}
}

// Add appends one observation.
func (s *Sample) Add(v float64) {
	s.values = append(s.values, v)
	s.sorted = false
	s.sum += v
}

// AddAll appends all observations in vs.
func (s *Sample) AddAll(vs []float64) {
	for _, v := range vs {
		s.Add(v)
	}
}

// Len returns the number of observations.
func (s *Sample) Len() int { return len(s.values) }

// Mean returns the arithmetic mean, or 0 for an empty sample.
func (s *Sample) Mean() float64 {
	if len(s.values) == 0 {
		return 0
	}
	return s.sum / float64(len(s.values))
}

// Min returns the smallest observation, or 0 for an empty sample.
func (s *Sample) Min() float64 {
	if len(s.values) == 0 {
		return 0
	}
	s.Sort()
	return s.values[0]
}

// Max returns the largest observation, or 0 for an empty sample.
func (s *Sample) Max() float64 {
	if len(s.values) == 0 {
		return 0
	}
	s.Sort()
	return s.values[len(s.values)-1]
}

// Sort orders the observations, which order-statistic queries otherwise do
// lazily on first use. After Sort, and until the next Add, no query writes to
// the sample.
func (s *Sample) Sort() {
	if !s.sorted {
		sort.Float64s(s.values)
		s.sorted = true
	}
}

// Percentile returns the p-th percentile (0 <= p <= 100) using linear
// interpolation between closest ranks. It returns ErrEmpty on empty samples.
func (s *Sample) Percentile(p float64) (float64, error) {
	if len(s.values) == 0 {
		return 0, ErrEmpty
	}
	if p <= 0 {
		return s.Min(), nil
	}
	if p >= 100 {
		return s.Max(), nil
	}
	s.Sort()
	rank := p / 100 * float64(len(s.values)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.values[lo], nil
	}
	frac := rank - float64(lo)
	return s.values[lo]*(1-frac) + s.values[hi]*frac, nil
}

// PercentileOrZero is Percentile with the empty-sample error flattened to 0,
// for report cells where "no observations" prints as zero.
func (s *Sample) PercentileOrZero(p float64) float64 {
	v, err := s.Percentile(p)
	if err != nil {
		return 0
	}
	return v
}

// TailMean returns the mean of all observations at or beyond the p-th
// percentile. This is the paper's tail-latency metric (Section 3.2): unlike a
// raw percentile it cannot be gamed by degrading only the requests beyond the
// measured percentile.
func (s *Sample) TailMean(p float64) (float64, error) {
	if len(s.values) == 0 {
		return 0, ErrEmpty
	}
	s.Sort()
	start := int(math.Floor(p / 100 * float64(len(s.values))))
	if start >= len(s.values) {
		start = len(s.values) - 1
	}
	if start < 0 {
		start = 0
	}
	var sum float64
	for _, v := range s.values[start:] {
		sum += v
	}
	return sum / float64(len(s.values)-start), nil
}

// Values returns a copy of the observations in sorted order.
func (s *Sample) Values() []float64 {
	s.Sort()
	out := make([]float64, len(s.values))
	copy(out, s.values)
	return out
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	Value    float64 // observation value
	Fraction float64 // fraction of observations <= Value
}

// CDF returns the empirical cumulative distribution function sampled at up to
// points evenly spaced quantiles. points must be >= 2.
func (s *Sample) CDF(points int) ([]CDFPoint, error) {
	if len(s.values) == 0 {
		return nil, ErrEmpty
	}
	if points < 2 {
		points = 2
	}
	s.Sort()
	out := make([]CDFPoint, 0, points)
	n := len(s.values)
	for i := 0; i < points; i++ {
		frac := float64(i) / float64(points-1)
		idx := int(frac * float64(n-1))
		out = append(out, CDFPoint{Value: s.values[idx], Fraction: float64(idx+1) / float64(n)})
	}
	return out, nil
}

// WeightedSpeedup computes the batch-application metric from Section 6:
// (sum_i IPC_i / IPC_i,alone) / N. ipcs and baselines must have equal nonzero
// length and strictly positive baselines.
func WeightedSpeedup(ipcs, baselines []float64) (float64, error) {
	if len(ipcs) == 0 || len(ipcs) != len(baselines) {
		return 0, errors.New("stats: weighted speedup needs equal-length nonempty slices")
	}
	var sum float64
	for i := range ipcs {
		if baselines[i] <= 0 {
			return 0, errors.New("stats: weighted speedup baseline must be positive")
		}
		sum += ipcs[i] / baselines[i]
	}
	return sum / float64(len(ipcs)), nil
}

// Package monitor implements the profiling hardware the paper's policies rely
// on: utility monitors (UMONs) that capture miss curves by sampled shadow-tag
// simulation, an MLP profiler that measures the effective cycle cost of a
// miss, and the reuse profiler used for the Figure 2 cross-request reuse
// characterization.
package monitor

import (
	"fmt"
	"math"
)

// MissCurve is an application's expected number of misses as a function of its
// cache allocation. Point i corresponds to an allocation of
// i*TotalLines/(len(Misses)-1) lines; Misses[0] is the miss count with no
// cache at all (every access misses) and the last point is the miss count with
// an allocation of TotalLines.
type MissCurve struct {
	// TotalLines is the allocation corresponding to the last point.
	TotalLines uint64
	// Misses[i] is the expected number of misses over the profiled window when
	// the application is allocated i*TotalLines/(len(Misses)-1) lines.
	Misses []float64
	// Accesses is the number of LLC accesses over the profiled window.
	Accesses float64
}

// Points returns the number of points in the curve.
func (m MissCurve) Points() int { return len(m.Misses) }

// linesPerPoint returns the allocation granularity of the curve.
func (m MissCurve) linesPerPoint() float64 {
	if len(m.Misses) <= 1 {
		return float64(m.TotalLines)
	}
	return float64(m.TotalLines) / float64(len(m.Misses)-1)
}

// At returns the expected miss count at an allocation of the given number of
// lines, linearly interpolating between curve points. Allocations beyond
// TotalLines return the last point.
func (m MissCurve) At(lines uint64) float64 {
	if len(m.Misses) == 0 {
		return 0
	}
	if len(m.Misses) == 1 || m.TotalLines == 0 {
		return m.Misses[0]
	}
	pos := float64(lines) / m.linesPerPoint()
	if pos >= float64(len(m.Misses)-1) {
		return m.Misses[len(m.Misses)-1]
	}
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	return m.Misses[lo]*(1-frac) + m.Misses[lo+1]*frac
}

// MissProbAt returns the probability that an access misses at the given
// allocation (misses/accesses, clamped to [0,1]).
func (m MissCurve) MissProbAt(lines uint64) float64 {
	if m.Accesses <= 0 {
		return 1
	}
	p := m.At(lines) / m.Accesses
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// HitsAt returns the expected number of hits at the given allocation.
func (m MissCurve) HitsAt(lines uint64) float64 {
	h := m.Accesses - m.At(lines)
	if h < 0 {
		return 0
	}
	return h
}

// Interpolate resamples the curve to the given number of points (the paper
// linearly interpolates 32-point UMON curves to 256 points for finer-grained
// allocation decisions).
func (m MissCurve) Interpolate(points int) MissCurve {
	if points < 2 {
		points = 2
	}
	out := MissCurve{TotalLines: m.TotalLines, Accesses: m.Accesses, Misses: make([]float64, points)}
	if len(m.Misses) == 0 {
		return out
	}
	for i := 0; i < points; i++ {
		lines := uint64(float64(i) / float64(points-1) * float64(m.TotalLines))
		out.Misses[i] = m.At(lines)
	}
	return out
}

// Scale returns a copy of the curve with misses and accesses multiplied by
// factor, used to project a sampled curve onto the full access stream.
func (m MissCurve) Scale(factor float64) MissCurve {
	out := MissCurve{TotalLines: m.TotalLines, Accesses: m.Accesses * factor, Misses: make([]float64, len(m.Misses))}
	for i, v := range m.Misses {
		out.Misses[i] = v * factor
	}
	return out
}

// Validate reports structural problems in the curve.
func (m MissCurve) Validate() error {
	if len(m.Misses) < 2 {
		return fmt.Errorf("monitor: miss curve needs at least 2 points, has %d", len(m.Misses))
	}
	if m.Accesses < 0 {
		return fmt.Errorf("monitor: negative access count %v", m.Accesses)
	}
	for i, v := range m.Misses {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("monitor: invalid miss count %v at point %d", v, i)
		}
	}
	return nil
}

// FlatCurve returns a curve with the same miss count at every allocation,
// useful as a safe default before any profiling information is available.
func FlatCurve(totalLines uint64, points int, misses, accesses float64) MissCurve {
	if points < 2 {
		points = 2
	}
	c := MissCurve{TotalLines: totalLines, Accesses: accesses, Misses: make([]float64, points)}
	for i := range c.Misses {
		c.Misses[i] = misses
	}
	return c
}

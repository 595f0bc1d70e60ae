// Package policytest provides miss-curve builders for unit-testing
// partitioning policies; policy.PlantView is the scriptable policy.View.
package policytest

import "repro/internal/monitor"

// LinearCurve builds a miss curve that falls linearly from misses at zero
// allocation to floor at the given footprint and stays flat beyond it.
func LinearCurve(totalLines, footprint uint64, misses, floor, accesses float64) monitor.MissCurve {
	points := 65
	c := monitor.MissCurve{TotalLines: totalLines, Accesses: accesses, Misses: make([]float64, points)}
	for i := 0; i < points; i++ {
		lines := float64(i) / float64(points-1) * float64(totalLines)
		if footprint == 0 || lines >= float64(footprint) {
			c.Misses[i] = floor
			continue
		}
		frac := lines / float64(footprint)
		c.Misses[i] = misses - (misses-floor)*frac
	}
	return c
}

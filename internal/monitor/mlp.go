package monitor

// MLPProfiler measures the average number of cycles the core loses per
// long-latency (LLC) miss, in the style of the performance-counter
// architecture of Eyerman et al. that the paper uses. On an out-of-order core
// overlapping misses share their latency, so the effective per-miss penalty M
// is the memory latency divided by the achieved memory-level parallelism; the
// profiler simply accumulates the stall cycles the core attributes to each
// miss and reports their mean.
//
// M is one of the two inputs to Ubik's transient model (the other is the miss
// probability curve from the UMON).
type MLPProfiler struct {
	misses uint64
	// window keeps an exponentially-decayed estimate so that M tracks phase
	// changes without forgetting everything at every reconfiguration.
	decayedMisses float64
	decayedStall  float64
	decay         float64
}

// NewMLPProfiler returns a profiler with the given exponential decay factor in
// (0,1]; 1 means no decay (pure cumulative average).
func NewMLPProfiler(decay float64) *MLPProfiler {
	if decay <= 0 || decay > 1 {
		decay = 1
	}
	return &MLPProfiler{decay: decay}
}

// RecordMiss tells the profiler that one miss cost the core stallCycles
// cycles of exposed latency.
func (p *MLPProfiler) RecordMiss(stallCycles float64) {
	if stallCycles < 0 {
		stallCycles = 0
	}
	p.misses++
	p.decayedMisses = p.decayedMisses*p.decay + 1
	p.decayedStall = p.decayedStall*p.decay + stallCycles
}

// Misses returns the number of misses recorded.
func (p *MLPProfiler) Misses() uint64 { return p.misses }

// AvgMissPenalty returns M, the average exposed cycles per miss. It returns
// fallback when no misses have been recorded yet.
func (p *MLPProfiler) AvgMissPenalty(fallback float64) float64 {
	if p.decayedMisses <= 0 {
		return fallback
	}
	return p.decayedStall / p.decayedMisses
}

// Clone returns an independent copy of the profiler.
func (p *MLPProfiler) Clone() *MLPProfiler {
	c := *p
	return &c
}

// Reset clears the profiler.
func (p *MLPProfiler) Reset() {
	p.misses = 0
	p.decayedMisses = 0
	p.decayedStall = 0
}

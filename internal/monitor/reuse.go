package monitor

// ReuseProfiler classifies LLC accesses the way Figure 2 of the paper does: a
// hit is attributed to the number of requests ago the line was last touched
// (0 = earlier in the same request, 1 = one request ago, ... , MaxAge+ lumped
// together), and misses are counted separately. The profiler is fed by the
// simulator, which stores the current request id in each cache line's
// metadata. With private L1/L2 levels configured it, like the UMON, observes
// only the filtered stream that reaches the LLC, so the breakdown describes
// LLC-level reuse.
type ReuseProfiler struct {
	// hitsByAge[i] counts hits whose line was last touched i requests ago;
	// the last bucket aggregates everything at MaxAge or older.
	hitsByAge []uint64
	misses    uint64
	accesses  uint64
}

// DefaultReuseMaxAge matches the paper's Figure 2, which shows 0..7 requests
// ago plus an "8+ requests ago" bucket.
const DefaultReuseMaxAge = 8

// NewReuseProfiler returns a profiler with maxAge+1 hit buckets (ages
// 0..maxAge-1 plus an aggregated maxAge+ bucket).
func NewReuseProfiler(maxAge int) *ReuseProfiler {
	if maxAge < 1 {
		maxAge = 1
	}
	return &ReuseProfiler{hitsByAge: make([]uint64, maxAge+1)}
}

// Record registers one access. age is the number of requests since the line
// was last touched and is ignored for misses.
func (r *ReuseProfiler) Record(hit bool, age uint64) {
	r.accesses++
	if !hit {
		r.misses++
		return
	}
	if age >= uint64(len(r.hitsByAge)-1) {
		r.hitsByAge[len(r.hitsByAge)-1]++
		return
	}
	r.hitsByAge[age]++
}

// Breakdown returns the fraction of accesses that were hits of each age
// (index 0 = same request, last index = oldest bucket) followed by the miss
// fraction as the final element, matching the stacking order of Figure 2.
func (r *ReuseProfiler) Breakdown() []float64 {
	out := make([]float64, len(r.hitsByAge)+1)
	if r.accesses == 0 {
		return out
	}
	for i, h := range r.hitsByAge {
		out[i] = float64(h) / float64(r.accesses)
	}
	out[len(out)-1] = float64(r.misses) / float64(r.accesses)
	return out
}

// Reset clears the profiler.
func (r *ReuseProfiler) Reset() {
	for i := range r.hitsByAge {
		r.hitsByAge[i] = 0
	}
	r.misses = 0
	r.accesses = 0
}

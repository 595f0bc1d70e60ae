package policy

// OnOff is the "efficient but unsafe" policy from Section 4: a latency-
// critical application gets its full target allocation only while it is
// active; as soon as it goes idle its space is handed to the batch
// applications. Because recomputing the batch partitioning on every
// idle/active transition would be too expensive, OnOff precomputes the batch
// allocations for every possible number of active latency-critical
// applications (N+1 cases) at each periodic reconfiguration, and just switches
// between them on transitions.
//
// OnOff maximises batch space but ignores inertia: taking a latency-critical
// application's working set away while it is idle forces it to rebuild the
// working set at the start of the next request, degrading tail latency.
type OnOff struct {
	// Buckets is the allocation granularity for the batch Lookahead.
	Buckets uint64

	// precomputed[k] holds batch allocations (indexed like batchApps) for the
	// case of k active latency-critical applications.
	precomputed [][]uint64
	batchApps   []int
	lcApps      []int
}

// NewOnOff returns an OnOff policy with the default 256-bucket granularity.
func NewOnOff() *OnOff { return &OnOff{Buckets: 256} }

// Name implements Policy.
func (*OnOff) Name() string { return "OnOff" }

// Clone implements Policy: the precomputed per-active-count allocation table
// and the app index slices are deep-copied, so the copy's transitions (which
// read the table) and reconfigurations (which rebuild it) cannot alias the
// original's state. After a Reconfigure, the table is what OnActive/OnIdle
// switch between until the next interval.
func (p *OnOff) Clone() Policy {
	c := &OnOff{Buckets: p.Buckets}
	if p.precomputed != nil {
		c.precomputed = make([][]uint64, len(p.precomputed))
		for i, alloc := range p.precomputed {
			c.precomputed[i] = append([]uint64(nil), alloc...)
		}
	}
	c.batchApps = append([]int(nil), p.batchApps...)
	c.lcApps = append([]int(nil), p.lcApps...)
	return c
}

// Reconfigure implements Policy: it rebuilds the per-active-count batch
// allocation table and applies the allocation for the current active set.
func (p *OnOff) Reconfigure(v View) []Resize {
	n := v.NumApps()
	if n == 0 {
		return nil
	}
	buckets := p.Buckets
	if buckets == 0 {
		buckets = 256
	}
	bucketLines := v.TotalLines() / buckets
	if bucketLines == 0 {
		bucketLines = 1
	}

	p.batchApps = p.batchApps[:0]
	p.lcApps = p.lcApps[:0]
	for i := 0; i < n; i++ {
		if v.IsLatencyCritical(i) {
			p.lcApps = append(p.lcApps, i)
		} else {
			p.batchApps = append(p.batchApps, i)
		}
	}

	curves := make([]WeightedCurve, len(p.batchApps))
	for j, app := range p.batchApps {
		curves[j] = WeightedCurve{Curve: v.MissCurve(app), Weight: v.MissPenalty(app)}
	}

	// Average per-LC target, used to translate "k active apps" into a batch
	// budget. (All latency-critical targets are equal in the paper's mixes and
	// in ours; with heterogeneous targets this becomes an approximation.)
	var lcTargetTotal uint64
	for _, app := range p.lcApps {
		lcTargetTotal += v.LCTargetLines(app)
	}
	avgTarget := uint64(0)
	if len(p.lcApps) > 0 {
		avgTarget = lcTargetTotal / uint64(len(p.lcApps))
	}

	p.precomputed = make([][]uint64, len(p.lcApps)+1)
	for k := 0; k <= len(p.lcApps); k++ {
		lcLines := uint64(k) * avgTarget
		budget := uint64(0)
		if total := v.TotalLines(); total > lcLines {
			budget = total - lcLines
		}
		p.precomputed[k] = Lookahead(curves, budget, bucketLines)
	}

	return p.currentAllocation(v)
}

// currentAllocation returns resizes reflecting the current active set using
// the precomputed table.
func (p *OnOff) currentAllocation(v View) []Resize {
	if p.precomputed == nil {
		return nil
	}
	active := 0
	out := make([]Resize, 0, v.NumApps())
	for _, app := range p.lcApps {
		if v.Active(app) {
			active++
			out = append(out, Resize{App: app, Target: v.LCTargetLines(app)})
		} else {
			out = append(out, Resize{App: app, Target: 0})
		}
	}
	if active >= len(p.precomputed) {
		active = len(p.precomputed) - 1
	}
	alloc := p.precomputed[active]
	for j, app := range p.batchApps {
		if j < len(alloc) {
			out = append(out, Resize{App: app, Target: alloc[j]})
		}
	}
	return out
}

// OnActive implements Policy.
func (p *OnOff) OnActive(app int, v View) []Resize { return p.currentAllocation(v) }

// OnIdle implements Policy.
func (p *OnOff) OnIdle(app int, v View) []Resize { return p.currentAllocation(v) }

// OnLCCheck implements Policy.
func (*OnOff) OnLCCheck(int, View) []Resize { return nil }

// OnRequestComplete implements Policy.
func (*OnOff) OnRequestComplete(int, uint64, View) []Resize { return nil }

package core

import (
	"repro/internal/monitor"
	"repro/internal/policy"
)

// RepartTable is the repartitioning table of Section 5.1.2: it precomputes, at
// every coarse-grained reconfiguration, how the space available to batch
// applications should be divided for every possible batch budget (quantised to
// buckets). When a latency-critical partition is resized on an idle/active
// transition, the runtime just reads the row for the new budget instead of
// re-running the (expensive) Lookahead algorithm.
type RepartTable struct {
	bucketLines uint64
	// alloc[b] holds the per-batch-app allocations (in lines, ordered like
	// Apps) when the batch budget is b buckets.
	alloc [][]uint64
	// Apps are the batch application indices this table covers.
	Apps []int
	// curves are retained for hit/miss estimates used in cost-benefit sizing.
	curves []monitor.MissCurve
}

// BuildRepartTable constructs a repartitioning table.
//
//   - apps, curves and weights describe the batch applications (weights are
//     their per-miss penalties, as in UCP-with-MLP).
//   - baselineBudget is the average space that was available to batch apps in
//     the previous interval; the Lookahead allocation at that budget anchors
//     the table, and other rows are derived greedily from it.
//   - totalLines is the LLC capacity and buckets the table resolution (256 in
//     the paper).
func BuildRepartTable(apps []int, curves []monitor.MissCurve, weights []float64, baselineBudget, totalLines uint64, buckets int) *RepartTable {
	if buckets < 1 {
		buckets = 1
	}
	bucketLines := totalLines / uint64(buckets)
	if bucketLines == 0 {
		bucketLines = 1
	}
	t := &RepartTable{
		bucketLines: bucketLines,
		Apps:        append([]int(nil), apps...),
		curves:      append([]monitor.MissCurve(nil), curves...),
		alloc:       make([][]uint64, buckets+1),
	}
	n := len(apps)
	if n == 0 {
		for b := range t.alloc {
			t.alloc[b] = nil
		}
		return t
	}

	wcurves := make([]policy.WeightedCurve, n)
	for i := range curves {
		w := 1.0
		if i < len(weights) && weights[i] > 0 {
			w = weights[i]
		}
		wcurves[i] = policy.WeightedCurve{Curve: curves[i], Weight: w}
	}

	if baselineBudget > totalLines {
		baselineBudget = totalLines
	}
	baseBucket := int(baselineBudget / bucketLines)
	if baseBucket > buckets {
		baseBucket = buckets
	}
	base := policy.Lookahead(wcurves, uint64(baseBucket)*bucketLines, bucketLines)
	t.alloc[baseBucket] = base

	cost := func(app int, lines uint64) float64 { return wcurves[app].CostAt(lines) }

	// Rows below the baseline: repeatedly take one bucket from the app whose
	// cost increases the least (lowest marginal utility).
	cur := append([]uint64(nil), base...)
	for b := baseBucket - 1; b >= 0; b-- {
		best, bestLoss := -1, 0.0
		for i := 0; i < n; i++ {
			if cur[i] < bucketLines {
				continue
			}
			loss := cost(i, cur[i]-bucketLines) - cost(i, cur[i])
			if best < 0 || loss < bestLoss {
				best, bestLoss = i, loss
			}
		}
		if best < 0 {
			// Nobody has a full bucket left; shave whatever remains.
			for i := 0; i < n; i++ {
				if cur[i] > 0 {
					best = i
					break
				}
			}
			if best < 0 {
				t.alloc[b] = append([]uint64(nil), cur...)
				continue
			}
			cur[best] = 0
		} else {
			cur[best] -= bucketLines
		}
		t.alloc[b] = append([]uint64(nil), cur...)
	}

	// Rows above the baseline: repeatedly give one bucket to the app whose
	// cost decreases the most (highest marginal utility).
	cur = append([]uint64(nil), base...)
	for b := baseBucket + 1; b <= buckets; b++ {
		best, bestGain := 0, -1.0
		for i := 0; i < n; i++ {
			gain := cost(i, cur[i]) - cost(i, cur[i]+bucketLines)
			if gain > bestGain {
				best, bestGain = i, gain
			}
		}
		cur[best] += bucketLines
		t.alloc[b] = append([]uint64(nil), cur...)
	}
	return t
}

// Clone returns a deep copy of the table: budget rows, app indices and the
// retained miss curves are all duplicated, so a cloned Ubik instance shares
// no mutable state with the original.
func (t *RepartTable) Clone() *RepartTable {
	if t == nil {
		return nil
	}
	c := &RepartTable{
		bucketLines: t.bucketLines,
		Apps:        append([]int(nil), t.Apps...),
		alloc:       make([][]uint64, len(t.alloc)),
		curves:      make([]monitor.MissCurve, len(t.curves)),
	}
	for i, row := range t.alloc {
		c.alloc[i] = append([]uint64(nil), row...)
	}
	for i, curve := range t.curves {
		cc := curve
		cc.Misses = append([]float64(nil), curve.Misses...)
		c.curves[i] = cc
	}
	return c
}

// BucketLines returns the table's allocation granularity.
func (t *RepartTable) BucketLines() uint64 { return t.bucketLines }

// Buckets returns the number of budget rows minus one (the maximum budget in
// buckets).
func (t *RepartTable) Buckets() int { return len(t.alloc) - 1 }

// AllocationsFor returns the per-batch-app allocations (ordered like Apps) for
// the given batch budget in lines.
func (t *RepartTable) AllocationsFor(budgetLines uint64) []uint64 {
	if len(t.alloc) == 0 || len(t.Apps) == 0 {
		return nil
	}
	b := int(budgetLines / t.bucketLines)
	if b >= len(t.alloc) {
		b = len(t.alloc) - 1
	}
	if b < 0 {
		b = 0
	}
	return append([]uint64(nil), t.alloc[b]...)
}

// HitsAt returns the total expected batch hits (over the profiled window) when
// the batch applications share the given budget, using the table's own
// allocation for that budget. Ubik's cost-benefit analysis uses differences of
// this quantity.
func (t *RepartTable) HitsAt(budgetLines uint64) float64 {
	alloc := t.AllocationsFor(budgetLines)
	var hits float64
	for i, a := range alloc {
		if i < len(t.curves) {
			hits += t.curves[i].HitsAt(a)
		}
	}
	return hits
}

// HitsGain returns the extra batch hits from growing the batch budget from
// base to base+extra lines.
func (t *RepartTable) HitsGain(baseBudget, extra uint64) float64 {
	g := t.HitsAt(baseBudget+extra) - t.HitsAt(baseBudget)
	if g < 0 {
		return 0
	}
	return g
}

// MissCost returns the extra batch misses from shrinking the batch budget from
// base to base-lost lines.
func (t *RepartTable) MissCost(baseBudget, lost uint64) float64 {
	if lost > baseBudget {
		lost = baseBudget
	}
	c := t.HitsAt(baseBudget) - t.HitsAt(baseBudget-lost)
	if c < 0 {
		return 0
	}
	return c
}

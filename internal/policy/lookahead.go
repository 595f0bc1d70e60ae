package policy

import "repro/internal/monitor"

// WeightedCurve couples an application's miss curve with the cost of each of
// its misses, so the allocator can minimise expected miss *cycles* rather than
// raw misses. The paper's UCP baseline is "enhanced with MLP information":
// Weight is the application's measured per-miss penalty M.
type WeightedCurve struct {
	// Curve is the application's miss curve over the allocation range.
	Curve monitor.MissCurve
	// Weight converts misses into cost (typically cycles per miss).
	Weight float64
	// Min is the minimum allocation (in lines) this application must receive.
	Min uint64
	// Max caps the allocation (0 means no cap).
	Max uint64
}

// CostAt returns the weighted cost at an allocation of the given lines.
func (w WeightedCurve) CostAt(lines uint64) float64 {
	weight := w.Weight
	if weight <= 0 {
		weight = 1
	}
	return w.Curve.At(lines) * weight
}

// Lookahead runs UCP's Lookahead allocation algorithm (Qureshi & Patt):
// starting from each application's minimum allocation, it repeatedly grants
// the chunk of space with the highest marginal utility (cost reduction per
// line) until the budget is exhausted. Allocations are granted in multiples of
// bucketLines; any remainder left over when no application has positive
// marginal utility is spread round-robin, so the whole budget is always
// assigned.
//
// The returned slice has one allocation (in lines) per input curve and always
// sums to at most budgetLines; it sums to exactly budgetLines when the budget
// is a multiple of bucketLines and the minimums fit.
func Lookahead(curves []WeightedCurve, budgetLines, bucketLines uint64) []uint64 {
	n := len(curves)
	alloc := make([]uint64, n)
	if n == 0 || budgetLines == 0 {
		return alloc
	}
	if bucketLines == 0 {
		bucketLines = 1
	}

	// Grant minimum allocations first.
	var used uint64
	for i, c := range curves {
		min := c.Min
		if min > budgetLines-used {
			min = budgetLines - used
		}
		alloc[i] = min
		used += min
	}
	if used >= budgetLines {
		return alloc
	}
	remainingBuckets := (budgetLines - used) / bucketLines

	maxFor := func(i int) uint64 {
		if curves[i].Max == 0 {
			return budgetLines
		}
		return curves[i].Max
	}

	// An allocation only ever sits on the grid Min + k*bucketLines, so each
	// application's cost is evaluated once per grid point it can reach; a
	// round then costs one subtraction and one division per candidate chunk
	// instead of an interpolated curve lookup.
	rows := make([]lookaheadRow, n)
	for i := range rows {
		var reach uint64 // buckets grantable before Max or the budget is reached
		if alloc[i] < maxFor(i) {
			reach = min((maxFor(i)-alloc[i])/bucketLines, remainingBuckets)
		}
		r := &rows[i]
		r.cost = make([]float64, reach+1)
		for k := range r.cost {
			r.cost[k] = curves[i].CostAt(alloc[i] + uint64(k)*bucketLines)
		}
		r.rescan(remainingBuckets, bucketLines)
	}

	for remainingBuckets > 0 {
		bestApp, bestMU := -1, 0.0
		for i := range rows {
			r := &rows[i]
			// A row's best chunk stays its best while the budget shrinks,
			// unless the chunk itself no longer fits.
			if r.chunk > remainingBuckets {
				r.rescan(remainingBuckets, bucketLines)
			}
			if r.mu > bestMU {
				bestApp, bestMU = i, r.mu
			}
		}
		if bestApp < 0 {
			break // nobody benefits from more space
		}
		r := &rows[bestApp]
		alloc[bestApp] += r.chunk * bucketLines
		remainingBuckets -= r.chunk
		r.cost = r.cost[r.chunk:]
		r.rescan(remainingBuckets, bucketLines)
	}

	// Spread any leftover space round-robin (it has no measured utility, but
	// leaving capacity unassigned would just waste it).
	for i := 0; remainingBuckets > 0 && n > 0; i = (i + 1) % n {
		if alloc[i]+bucketLines <= maxFor(i) || maxFor(i) >= budgetLines {
			alloc[i] += bucketLines
			remainingBuckets--
		} else if i == n-1 {
			// Everyone is capped; give up.
			break
		}
	}
	return alloc
}

// lookaheadRow is one application's state in a Lookahead call: its cost at
// every grid point it can still reach, and its best next chunk from where it
// stands.
type lookaheadRow struct {
	cost  []float64 // cost[k] is the cost k buckets above the current allocation
	chunk uint64    // best next chunk in buckets (0: none has positive utility)
	mu    float64   // its marginal utility, cost reduction per line
}

// rescan finds the chunk with the highest positive marginal utility among
// those that fit both the row and the remaining budget, the smallest such
// chunk winning ties.
func (r *lookaheadRow) rescan(remainingBuckets, bucketLines uint64) {
	r.chunk, r.mu = 0, 0
	for k := uint64(1); k < uint64(len(r.cost)) && k <= remainingBuckets; k++ {
		if mu := (r.cost[0] - r.cost[k]) / float64(k*bucketLines); mu > r.mu {
			r.chunk, r.mu = k, mu
		}
	}
}

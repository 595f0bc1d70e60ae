package policy_test

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/policy"
	"repro/internal/policy/policytest"
)

// lookaheadNaive is the textbook form of the algorithm, kept as the oracle
// for policy.Lookahead: every round re-evaluates every application's curve at
// every feasible chunk size, taking the first strictly better marginal
// utility in (application, chunk) order.
func lookaheadNaive(curves []policy.WeightedCurve, budgetLines, bucketLines uint64) []uint64 {
	n := len(curves)
	alloc := make([]uint64, n)
	if n == 0 || budgetLines == 0 {
		return alloc
	}
	if bucketLines == 0 {
		bucketLines = 1
	}
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
	for remainingBuckets > 0 {
		bestApp, bestChunk := -1, uint64(0)
		bestMU := 0.0
		for i := range curves {
			cur := alloc[i]
			if cur >= maxFor(i) {
				continue
			}
			base := curves[i].CostAt(cur)
			maxChunks := remainingBuckets
			if cap := (maxFor(i) - cur) / bucketLines; cap < maxChunks {
				maxChunks = cap
			}
			for k := uint64(1); k <= maxChunks; k++ {
				lines := k * bucketLines
				mu := (base - curves[i].CostAt(cur+lines)) / float64(lines)
				if mu > bestMU {
					bestMU = mu
					bestApp = i
					bestChunk = k
				}
			}
		}
		if bestApp < 0 {
			break
		}
		alloc[bestApp] += bestChunk * bucketLines
		remainingBuckets -= bestChunk
	}
	for i := 0; remainingBuckets > 0 && n > 0; i = (i + 1) % n {
		if alloc[i]+bucketLines <= maxFor(i) || maxFor(i) >= budgetLines {
			alloc[i] += bucketLines
			remainingBuckets--
		} else if i == n-1 {
			break
		}
	}
	return alloc
}

// randomCurve draws one of the shapes that stress the tie-breaks: flat (no
// utility anywhere), linear to a footprint (every chunk below the footprint
// has the same utility), a cliff (utility only past a threshold), and a
// random non-increasing staircase.
func randomCurve(rng *rand.Rand, total uint64) monitor.MissCurve {
	switch rng.Intn(4) {
	case 0:
		return monitor.FlatCurve(total, 65, float64(rng.Intn(1000)), 1000)
	case 1:
		return policytest.LinearCurve(total, uint64(rng.Int63n(int64(total)+1)), 1000, float64(rng.Intn(500)), 1000)
	case 2:
		c := monitor.FlatCurve(total, 65, 1000, 1000)
		for i := rng.Intn(len(c.Misses)); i < len(c.Misses); i++ {
			c.Misses[i] = 100
		}
		return c
	default:
		c := monitor.FlatCurve(total, 65, 0, 1000)
		m := 1000.0
		for i := range c.Misses {
			c.Misses[i] = m
			if rng.Intn(3) == 0 {
				m -= float64(rng.Intn(int(m)/4 + 1))
			}
		}
		return c
	}
}

// TestLookaheadMatchesNaive compares the tabulated Lookahead against the
// naive triple loop on random curve sets that include exact ties (identical
// and flat curves), Min/Max caps (also Min above Max and above the budget),
// budgets that are not a multiple of the bucket, a zero budget, a zero bucket
// and a single application.
func TestLookaheadMatchesNaive(t *testing.T) {
	sets := 12000
	if testing.Short() {
		sets = 2000
	}
	rng := rand.New(rand.NewSource(18))
	for set := 0; set < sets; set++ {
		total := uint64(64 + rng.Intn(2048))
		curves := make([]policy.WeightedCurve, 1+rng.Intn(6))
		if set%10 == 0 {
			curves = curves[:1]
		}
		for i := range curves {
			if i > 0 && rng.Intn(4) == 0 {
				curves[i] = curves[rng.Intn(i)] // an exact tie with an earlier app
				continue
			}
			w := policy.WeightedCurve{Curve: randomCurve(rng, total), Weight: float64(rng.Intn(4)) * 50}
			if rng.Intn(3) == 0 {
				w.Min = uint64(rng.Int63n(int64(total) / 2))
			}
			if rng.Intn(3) == 0 {
				w.Max = 1 + uint64(rng.Int63n(int64(total)))
			}
			curves[i] = w
		}
		budget := uint64(rng.Int63n(int64(total) + 1))
		bucket := uint64(rng.Intn(40))
		switch rng.Intn(8) {
		case 0:
			budget = 0
		case 1:
			budget, bucket = total, total/256+1 // the policies' own shape
		}
		got, want := policy.Lookahead(curves, budget, bucket), lookaheadNaive(curves, budget, bucket)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("set %d (budget %d, bucket %d, %d apps): Lookahead = %v, naive = %v\ncurves: %+v",
				set, budget, bucket, len(curves), got, want, curves)
		}
	}
}

// sixAppView is the shape the benchmark ledger times reconfigurations on: two
// latency-critical and four batch applications with 256-point curves of
// different footprints.
func sixAppView() *policy.PlantView {
	const lines = 6 * 2048
	view := &policy.PlantView{Lines: lines, EpochCycles: 5_000_000, Clock: 5_000_000}
	for i := 0; i < 6; i++ {
		curve := policytest.LinearCurve(lines, uint64(512+i*1536), 40_000, float64(500*i), 50_000).Interpolate(256)
		obs := policy.AppObservation{
			LatencyCritical: i < 2, Active: true,
			Curve: curve, MissPenalty: 100, CyclesPerAccessHit: 10,
			CurrentTarget: lines / 6, Occupancy: lines / 6, Misses: 1000,
		}
		if obs.LatencyCritical {
			obs.LCTargetLines, obs.DeadlineCycles, obs.IdleFraction = 2048, 50_000, 0.5
		}
		view.Apps = append(view.Apps, obs)
	}
	return view
}

// BenchmarkReconfigure is the go-test twin of the benchmark ledger's
// policy.ucp_reconfigure_us and core.ubik_reconfigure_us rows.
func BenchmarkReconfigure(b *testing.B) {
	for _, tc := range []struct {
		name string
		pol  policy.Policy
	}{
		{"ucp", policy.NewUCP()},
		{"ubik", core.NewUbikWithSlack(0.05)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			view := sixAppView()
			b.ReportAllocs()
			for b.Loop() {
				view.Clock += view.EpochCycles
				tc.pol.Reconfigure(view)
			}
		})
	}
}

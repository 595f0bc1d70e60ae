package cluster

import (
	"fmt"
	"math/rand"

	"repro/internal/workload"
)

// BalancerKind names a front-end load-balancing policy.
type BalancerKind string

// The four balancer policies the front-end supports.
const (
	// BalanceRoundRobin rotates the fan-out window one node per query.
	BalanceRoundRobin BalancerKind = "rr"
	// BalanceRandom picks seeded-random distinct nodes per query.
	BalanceRandom BalancerKind = "random"
	// BalanceWeighted samples nodes proportionally to their capacity weight
	// (without replacement within one query).
	BalanceWeighted BalancerKind = "weighted"
	// BalanceP2C is power-of-two-choices: per leaf, sample two candidates and
	// send to the one with less offered load so far.
	BalanceP2C BalancerKind = "p2c"
)

// BalancerKinds lists every supported kind (for usage strings and sweeps).
func BalancerKinds() []BalancerKind {
	return []BalancerKind{BalanceRoundRobin, BalanceRandom, BalanceWeighted, BalanceP2C}
}

// Balancer deterministically assigns a query's leaves to nodes. The planner
// calls Pick exactly once per query — for the primary fan-out, plus one
// extra choice for the hedge's spare node when the query hedges — so
// stateful policies advance once per query regardless of hedging. Balancers
// are stateful (cursor, RNG, both seeded) and are always driven serially by
// the planner, in query arrival order — the determinism contract of
// DESIGN.md §7: the whole leaf assignment is a pure function of
// (spec, seed), independent of how many workers later simulate the nodes.
type Balancer interface {
	// Name returns the policy name.
	Name() string
	// Pick appends k distinct node indices to dst and returns it, choosing
	// only nodes not marked in taken and marking every choice there. loads is
	// the planner's offered-load state: leaves assigned so far divided by the
	// node's capacity weight. Fewer than k appended indices means the request
	// is infeasible (not enough untaken nodes).
	Pick(dst []int, k int, taken []bool, loads []float64) []int
}

// NewBalancer builds a balancer over n nodes. weights are the per-node
// capacity weights (used by BalanceWeighted; must be positive) and seed
// drives the randomised policies.
func NewBalancer(kind BalancerKind, n int, weights []float64, seed uint64) (Balancer, error) {
	if n < 1 {
		return nil, fmt.Errorf("cluster: balancer needs at least one node")
	}
	switch kind {
	case BalanceRoundRobin:
		return &roundRobin{n: n}, nil
	case BalanceRandom:
		return &seededRandom{n: n, rng: workload.NewRand(workload.SplitSeed(seed, 0xBA1))}, nil
	case BalanceWeighted:
		if len(weights) != n {
			return nil, fmt.Errorf("cluster: weighted balancer needs %d weights, got %d", n, len(weights))
		}
		for i, w := range weights {
			if w <= 0 {
				return nil, fmt.Errorf("cluster: node %d has non-positive capacity weight %v", i, w)
			}
		}
		ws := append([]float64(nil), weights...)
		return &weightedCapacity{weights: ws, rng: workload.NewRand(workload.SplitSeed(seed, 0xBA2))}, nil
	case BalanceP2C:
		return &powerOfTwo{n: n, rng: workload.NewRand(workload.SplitSeed(seed, 0xBA3))}, nil
	default:
		return nil, kind.check()
	}
}

// check rejects a kind that names no supported policy.
func (k BalancerKind) check() error {
	for _, known := range BalancerKinds() {
		if k == known {
			return nil
		}
	}
	return fmt.Errorf("cluster: unknown balancer %q (want rr, random, weighted, or p2c)", k)
}

// roundRobin serves query q from the k nodes starting at cursor q mod n, so
// consecutive queries slide the fan-out window one node at a time and every
// node serves the same leaf share over a full rotation.
type roundRobin struct {
	n      int
	cursor int
}

func (b *roundRobin) Name() string { return string(BalanceRoundRobin) }

func (b *roundRobin) Pick(dst []int, k int, taken []bool, _ []float64) []int {
	start := b.cursor
	b.cursor++
	if b.cursor >= b.n {
		b.cursor = 0
	}
	for off := 0; off < b.n && k > 0; off++ {
		idx := start + off
		if idx >= b.n {
			idx -= b.n
		}
		if taken[idx] {
			continue
		}
		taken[idx] = true
		dst = append(dst, idx)
		k--
	}
	return dst
}

// seededRandom picks uniform-random distinct nodes; a collision with an
// already-taken node probes linearly upward, which keeps one RNG draw per
// leaf (deterministic and cheap) at the cost of a slight bias that vanishes
// for k << n.
type seededRandom struct {
	n   int
	rng *rand.Rand
}

func (b *seededRandom) Name() string { return string(BalanceRandom) }

func (b *seededRandom) Pick(dst []int, k int, taken []bool, _ []float64) []int {
	for ; k > 0; k-- {
		idx := b.rng.Intn(b.n)
		probed := 0
		for taken[idx] {
			idx++
			if idx >= b.n {
				idx = 0
			}
			if probed++; probed >= b.n {
				return dst // every node taken: infeasible
			}
		}
		taken[idx] = true
		dst = append(dst, idx)
	}
	return dst
}

// weightedCapacity samples nodes with probability proportional to capacity
// weight, without replacement within one query: bigger nodes serve
// proportionally more leaves.
type weightedCapacity struct {
	weights []float64
	rng     *rand.Rand
}

func (b *weightedCapacity) Name() string { return string(BalanceWeighted) }

func (b *weightedCapacity) Pick(dst []int, k int, taken []bool, _ []float64) []int {
	for ; k > 0; k-- {
		var total float64
		for i, w := range b.weights {
			if !taken[i] {
				total += w
			}
		}
		if total <= 0 {
			return dst
		}
		u := b.rng.Float64() * total
		choice := -1
		for i, w := range b.weights {
			if taken[i] {
				continue
			}
			choice = i
			if u < w {
				break
			}
			u -= w
		}
		taken[choice] = true
		dst = append(dst, choice)
	}
	return dst
}

// powerOfTwo implements power-of-two-choices over the planner's offered-load
// state: per leaf it samples two distinct untaken candidates and sends the
// leaf to the one with less load assigned so far (ties break toward the lower
// index), tracking the weighted leaf counts the planner maintains.
type powerOfTwo struct {
	n   int
	rng *rand.Rand
}

func (b *powerOfTwo) Name() string { return string(BalanceP2C) }

func (b *powerOfTwo) Pick(dst []int, k int, taken []bool, loads []float64) []int {
	for ; k > 0; k-- {
		a := b.sample(taken, -1)
		if a < 0 {
			return dst
		}
		c := b.sample(taken, a)
		choice := a
		if c >= 0 && (loads[c] < loads[a] || (loads[c] == loads[a] && c < a)) {
			choice = c
		}
		taken[choice] = true
		dst = append(dst, choice)
	}
	return dst
}

// sample draws one untaken node other than exclude (-1 = none), probing
// linearly from a uniform start; returns -1 when no candidate exists.
func (b *powerOfTwo) sample(taken []bool, exclude int) int {
	idx := b.rng.Intn(b.n)
	for probed := 0; probed < b.n; probed++ {
		if !taken[idx] && idx != exclude {
			return idx
		}
		idx++
		if idx >= b.n {
			idx = 0
		}
	}
	return -1
}

// Package cluster lifts the single-server simulator to a multi-node
// datacenter: a deterministic front-end draws one global query arrival
// process, a balancer assigns each query's fan-out leaves to nodes, every
// node runs a full independent single-node simulation (its own sim.Config,
// replica, co-located batch apps and management policy — heterogeneous
// clusters are first-class), and an aggregator joins the per-node leaf
// latencies back into user-visible query latencies: a query completes at the
// quorum-th response of its fan-out (the max, for a full quorum), so the
// cluster tail is the tail-at-scale statistic Ubik exists to protect.
//
// Determinism contract (DESIGN.md §7): the plan — arrival times and the full
// leaf-to-node assignment — is computed serially from the spec's seeds before
// any simulation starts; node simulations are independent seed-determined
// runs whose results land in index-addressed slots; the join is serial.
// Results are therefore bit-identical at any parallelism, and a
// one-node/fan-out-1 cluster reproduces the plain single-node simulation bit
// for bit (pinned against the sim package's golden digests).
package cluster

import (
	"fmt"

	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/workload"
)

// NodeSpec describes one server of the cluster.
type NodeSpec struct {
	// Config is the node's full machine configuration. Nodes may differ (a
	// straggler with a smaller LLC, a different scheme's cache mode, ...).
	Config sim.Config
	// LC is the replica slot template: the latency-critical profile serving
	// this node's leaf stream, with its load, deadline and seed. The runner
	// fills in the Arrivals/ExplicitRequests/ExplicitWarmup fields from the
	// plan; everything else is passed through.
	LC sim.AppSpec
	// Batch holds the node's co-located batch application slots.
	Batch []sim.AppSpec
	// Weight is the node's capacity weight for the weighted balancer and the
	// offered-load normalisation; 0 derives it from the node's LLC size.
	Weight float64
	// NewPolicy builds the node's management policy (policies are stateful,
	// one instance per node).
	NewPolicy func() policy.Policy
}

// weight resolves the node's capacity weight.
func (n NodeSpec) weight() float64 {
	if n.Weight > 0 {
		return n.Weight
	}
	return float64(n.Config.LLC.Lines)
}

// Spec describes a cluster run: the nodes, the query model and the global
// arrival process.
type Spec struct {
	// Nodes are the cluster's servers.
	Nodes []NodeSpec
	// Fanout is how many nodes each query touches (k of M).
	Fanout int
	// Quorum is how many of a query's leaves must respond before the query
	// completes: the query latency is the Quorum-th smallest leaf latency.
	// 0 means Fanout (wait for all — the max, the paper's user-visible tail).
	Quorum int
	// Balancer selects the leaf-assignment policy.
	Balancer BalancerKind
	// Queries is the number of measured queries.
	Queries int
	// WarmupQueries are served before measurement starts (they warm node
	// caches and balancer state but are excluded from every statistic).
	WarmupQueries int
	// QueryMeanInterarrival is the global query arrival spacing in cycles.
	// With fan-out k over M nodes, each node sees a mean leaf interarrival of
	// QueryMeanInterarrival * M / k.
	QueryMeanInterarrival float64
	// Sched modulates the global query rate over time; the zero value is the
	// constant schedule. Node simulations replay the modulated stream, so one
	// cluster-wide schedule drives every node coherently.
	Sched workload.ScheduleSpec
	// HedgeDelayCycles, when positive, issues one hedged duplicate of each
	// measured query to a spare node (not among its primaries) this many
	// cycles after the query arrives. Hedges are eager (tied requests without
	// cancellation): their load is fully modelled, and their response counts
	// toward the quorum offset by the hedge delay. Requires Fanout >= 2 and a
	// spare node (Fanout < len(Nodes)).
	HedgeDelayCycles uint64
	// Seed drives the balancer's randomness.
	Seed uint64
	// ArrivalSeed drives the global arrival process (split exactly like a
	// node slot's arrival seeds, so a one-node cluster seeded with that
	// slot's effective seed replays its stream bit for bit). 0 derives one
	// from Seed.
	ArrivalSeed uint64
	// Faults is the scheduled fault plan: time-windowed node failures (routed
	// around at query arrival time), fail-slow service inflation, and cold
	// restarts. An empty plan reproduces the un-faulted run bit for bit; the
	// plan is part of the serial front-end plan, so faulted runs stay
	// bit-identical at any parallelism.
	Faults []Fault
	// WindowCycles, when positive, buckets query latencies into
	// arrival-cycle windows of this width (per-phase cluster tails for
	// time-varying runs). Same floor as sim.Config.LatencyWindowCycles.
	WindowCycles uint64
	// TailPercentile is the percentile for Result.TailMean (0 = 95).
	TailPercentile float64
}

// quorum resolves the effective quorum.
func (s Spec) quorum() int {
	if s.Quorum == 0 {
		return s.Fanout
	}
	return s.Quorum
}

// tailPercentile resolves the tail percentile.
func (s Spec) tailPercentile() float64 {
	if s.TailPercentile == 0 {
		return 95
	}
	return s.TailPercentile
}

// arrivalSeed resolves the global arrival seed.
func (s Spec) arrivalSeed() uint64 {
	if s.ArrivalSeed != 0 {
		return s.ArrivalSeed
	}
	return workload.SplitSeed(s.Seed, 0xA881)
}

// hedged reports whether the spec issues hedged requests.
func (s Spec) hedged() bool { return s.HedgeDelayCycles > 0 }

// Shape is the part of a cluster run that can be judged before any node is
// calibrated: the fleet size, the query model, the report settings and the
// fault plan. It is the one rulebook for those facts — Spec.Validate applies
// it to its own fields and the scenario format lowers to it — so a
// validate-only pass rejects exactly the plans a run would, in the same words.
type Shape struct {
	// Nodes is the fleet size.
	Nodes int
	// Fanout and Quorum are the query model (Quorum 0 = Fanout).
	Fanout, Quorum int
	// Hedged reports whether each query sends one duplicate to a spare node.
	Hedged bool
	// Balancer is the leaf-assignment policy.
	Balancer BalancerKind
	// WindowCycles is the query-latency window width (0 = off).
	WindowCycles uint64
	// TailPercentile is the tail metric percentile (0 = 95).
	TailPercentile float64
	// Faults is the fault plan.
	Faults []Fault
}

// shape extracts the node-independent half of the spec.
func (s Spec) shape() Shape {
	return Shape{
		Nodes: len(s.Nodes), Fanout: s.Fanout, Quorum: s.Quorum, Hedged: s.hedged(),
		Balancer: s.Balancer, WindowCycles: s.WindowCycles, TailPercentile: s.TailPercentile,
		Faults: s.Faults,
	}
}

// Validate reports contradictory fleet shapes and malformed fault plans — the
// messages the command-line front-ends surface verbatim.
func (sh Shape) Validate() error {
	m := sh.Nodes
	if m < 1 {
		return fmt.Errorf("cluster: need at least one node, got %d", m)
	}
	if sh.Fanout < 1 {
		return fmt.Errorf("cluster: fan-out must be at least 1, got %d", sh.Fanout)
	}
	if sh.Fanout > m {
		return fmt.Errorf("cluster: fan-out %d exceeds the cluster size %d: a query cannot touch more nodes than the cluster has", sh.Fanout, m)
	}
	if sh.Quorum < 0 || sh.Quorum > sh.Fanout {
		return fmt.Errorf("cluster: quorum %d must be in [1, fan-out %d] (0 means wait for all leaves)", sh.Quorum, sh.Fanout)
	}
	if sh.Hedged {
		if sh.Fanout == 1 {
			return fmt.Errorf("cluster: hedging a fan-out-1 query is just a 2-node fan-out; use fan-out 2, quorum 1 instead")
		}
		if sh.Fanout >= m {
			return fmt.Errorf("cluster: hedging needs a spare node (fan-out %d already touches all %d nodes)", sh.Fanout, m)
		}
	}
	if err := sh.Balancer.check(); err != nil {
		return err
	}
	if sh.WindowCycles > 0 && sh.WindowCycles < 1024 {
		return fmt.Errorf("cluster: window width must be 0 (off) or at least 1024 cycles, got %d", sh.WindowCycles)
	}
	if sh.TailPercentile < 0 || sh.TailPercentile >= 100 {
		return fmt.Errorf("cluster: tail percentile must be in (0,100), got %v", sh.TailPercentile)
	}
	return sh.validateFaults()
}

// Validate reports specification problems: the shape rulebook first, then
// what only calibrated nodes and a sized query stream can show.
func (s Spec) Validate() error {
	if err := s.shape().Validate(); err != nil {
		return err
	}
	for i, n := range s.Nodes {
		if err := n.Config.Validate(); err != nil {
			return fmt.Errorf("cluster: node %d config: %w", i, err)
		}
		if !n.LC.IsLC() {
			return fmt.Errorf("cluster: node %d needs a latency-critical replica slot", i)
		}
		for j, b := range n.Batch {
			if b.IsLC() {
				return fmt.Errorf("cluster: node %d batch slot %d holds a latency-critical app; replicas go in the LC slot", i, j)
			}
			if err := b.Validate(); err != nil {
				return fmt.Errorf("cluster: node %d batch slot %d: %w", i, j, err)
			}
		}
		if n.NewPolicy == nil {
			return fmt.Errorf("cluster: node %d needs a policy constructor", i)
		}
		if n.Weight < 0 {
			return fmt.Errorf("cluster: node %d has negative capacity weight %v", i, n.Weight)
		}
	}
	if s.Queries < 1 {
		return fmt.Errorf("cluster: need at least one measured query, got %d", s.Queries)
	}
	if s.WarmupQueries < 0 {
		return fmt.Errorf("cluster: negative warmup query count %d", s.WarmupQueries)
	}
	if s.QueryMeanInterarrival <= 0 {
		return fmt.Errorf("cluster: query mean interarrival must be positive, got %v", s.QueryMeanInterarrival)
	}
	return s.Sched.Validate()
}

// weightsOf collects the resolved capacity weights.
func weightsOf(nodes []NodeSpec) []float64 {
	ws := make([]float64, len(nodes))
	for i, n := range nodes {
		ws[i] = n.weight()
	}
	return ws
}

// leafRef locates one leaf request: the index-th request (in arrival order,
// warmup included) of a node's replica stream.
type leafRef struct {
	node  int32
	index int32
}

// nodeEvent is one leaf arrival during planning, before per-node streams are
// frozen.
type nodeEvent struct {
	time  uint64
	query int32
	hedge bool
}

// queryPlan is the frozen front-end decision: when every query arrives, which
// node serves each of its leaves, and the per-node replay streams.
type queryPlan struct {
	arrivals   []uint64    // query arrival cycles (warmup + measured)
	primaries  [][]leafRef // per query, its Fanout primary leaves
	hedges     []leafRef   // per query, the hedge leaf (node < 0 when none)
	nodeTimes  [][]uint64  // per node, leaf arrival times sorted ascending
	nodeWarmup []int       // per node, how many leading leaves are warmup
}

// buildPlan draws the global arrival stream and assigns every leaf to a node.
// It runs serially: the plan is a pure function of the spec.
func buildPlan(spec Spec) (*queryPlan, error) {
	m := len(spec.Nodes)
	bal, err := NewBalancer(spec.Balancer, m, weightsOf(spec.Nodes), spec.Seed)
	if err != nil {
		return nil, err
	}
	arrSeed := spec.arrivalSeed()
	proc, err := workload.NewScheduledArrivals(spec.QueryMeanInterarrival,
		workload.SplitSeed(arrSeed, 7), spec.Sched, workload.SplitSeed(arrSeed, 11))
	if err != nil {
		return nil, err
	}
	total := spec.WarmupQueries + spec.Queries
	plan := &queryPlan{
		arrivals:   workload.DrawArrivals(proc, total),
		primaries:  make([][]leafRef, total),
		hedges:     make([]leafRef, total),
		nodeTimes:  make([][]uint64, m),
		nodeWarmup: make([]int, m),
	}
	events := make([][]nodeEvent, m)
	loads := make([]float64, m)
	invWeight := make([]float64, m)
	for i, w := range weightsOf(spec.Nodes) {
		invWeight[i] = 1 / w
	}
	taken := make([]bool, m)
	picked := make([]int, 0, spec.Fanout+1)
	for q := 0; q < total; q++ {
		t := plan.arrivals[q]
		// One Pick per query: the first Fanout choices are the primaries and,
		// when hedging, one extra choice is the hedge's spare node. A single
		// call keeps stateful balancers honest — round-robin advances its
		// window exactly once per query whether or not the query hedges.
		// Hedging starts after the warmup queries: warmup leaves must
		// strictly precede measured ones on every node (the simulator marks
		// a node's first nodeWarmup requests as warmup), and a warmup
		// query's late hedge could otherwise land after a measured primary.
		want := spec.Fanout
		hedging := spec.hedged() && q >= spec.WarmupQueries
		if hedging {
			want++
		}
		// Fault hook: nodes inside a node-down window at the query's arrival
		// time are pre-marked taken, so the balancer routes around them while
		// its own state (round-robin cursor, load counters) advances exactly
		// once per query, down nodes or not.
		if len(spec.Faults) > 0 {
			for n := 0; n < m; n++ {
				if downAt(spec.Faults, n, t) {
					taken[n] = true
				}
			}
		}
		picked = bal.Pick(picked[:0], want, taken, loads)
		if len(picked) != want {
			return nil, fmt.Errorf("cluster: balancer %s picked %d of %d nodes for query %d", bal.Name(), len(picked), want, q)
		}
		refs := make([]leafRef, spec.Fanout)
		for j, n := range picked[:spec.Fanout] {
			refs[j] = leafRef{node: int32(n)}
			events[n] = append(events[n], nodeEvent{time: t, query: int32(q)})
			loads[n] += invWeight[n]
		}
		plan.primaries[q] = refs
		plan.hedges[q] = leafRef{node: -1}
		if hedging {
			n := picked[spec.Fanout]
			plan.hedges[q] = leafRef{node: int32(n)}
			events[n] = append(events[n], nodeEvent{time: t + spec.HedgeDelayCycles, query: int32(q), hedge: true})
			loads[n] += invWeight[n]
		}
		for i := range taken {
			taken[i] = false
		}
	}
	// Freeze per-node streams: sort each node's events by arrival time
	// (stable in query order for ties — plain primaries tie only in query
	// order because query arrivals are strictly increasing) and resolve every
	// leaf's position in its node's stream.
	for n := 0; n < m; n++ {
		evs := events[n]
		sortEvents(evs)
		times := make([]uint64, len(evs))
		for i, e := range evs {
			times[i] = e.time
			if int(e.query) < spec.WarmupQueries {
				plan.nodeWarmup[n]++
			}
			if e.hedge {
				plan.hedges[e.query] = leafRef{node: int32(n), index: int32(i)}
				continue
			}
			refs := plan.primaries[e.query]
			for j := range refs {
				if refs[j].node == int32(n) {
					refs[j].index = int32(i)
					break
				}
			}
		}
		plan.nodeTimes[n] = times
		// Warmup leaves must be a strict prefix of the stream (checked above
		// positionally for hedges; primaries are time-ordered by
		// construction).
		for i := 0; i < plan.nodeWarmup[n]; i++ {
			if int(evs[i].query) >= spec.WarmupQueries {
				return nil, fmt.Errorf("cluster: internal error: measured leaf inside warmup prefix on node %d", n)
			}
		}
	}
	return plan, nil
}

// sortEvents orders a node's leaf arrivals by (time, query, hedge-last) — a
// deterministic total order — using insertion sort (streams arrive almost
// sorted: only hedges are displaced, and only by the hedge delay).
func sortEvents(evs []nodeEvent) {
	for i := 1; i < len(evs); i++ {
		e := evs[i]
		j := i - 1
		for j >= 0 && eventAfter(evs[j], e) {
			evs[j+1] = evs[j]
			j--
		}
		evs[j+1] = e
	}
}

// eventAfter reports whether a orders strictly after b.
func eventAfter(a, b nodeEvent) bool {
	if a.time != b.time {
		return a.time > b.time
	}
	if a.query != b.query {
		return a.query > b.query
	}
	return a.hedge && !b.hedge
}

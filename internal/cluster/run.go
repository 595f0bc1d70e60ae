package cluster

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// NodeResult is one node's view of a cluster run.
type NodeResult struct {
	// Sim is the node's full single-node simulation result (replica slot
	// first, then the node's batch slots).
	Sim sim.Result
	// Leaves is the number of measured leaf requests the node served
	// (primaries plus hedges).
	Leaves uint64
	// LeafMean, LeafP95 and LeafP99 summarise the node's measured leaf
	// latencies.
	LeafMean, LeafP95, LeafP99 float64
}

// Result is the outcome of a cluster run.
type Result struct {
	// Queries is the number of measured queries aggregated.
	Queries uint64
	// Fanout, Quorum and Balancer echo the resolved query model.
	Fanout, Quorum int
	Balancer       string
	// QueryLatencies holds the measured query latencies (quorum-joined),
	// sorted before aggregate returns so queries on it only read.
	// Read-only.
	QueryLatencies *stats.Sample
	// PerQueryLatencies holds the same latencies in query arrival order
	// (the sample is held sorted; this slice keeps its order), and
	// QueryArrivals each measured query's arrival cycle: the query record
	// every per-window view of the run is computed from (Record). Read-only.
	PerQueryLatencies []float64
	QueryArrivals     []uint64
	// Mean, P95, P99 and TailMean summarise the query latencies; TailMean is
	// the mean beyond Spec.TailPercentile (the paper's tail metric, lifted to
	// queries).
	Mean, P95, P99, TailMean float64
	// HedgeWins counts measured queries whose hedged response displaced a
	// primary from the quorum (the hedge made the query faster).
	HedgeWins uint64
	// Nodes holds the per-node breakdowns, index-aligned with Spec.Nodes.
	Nodes []NodeResult
}

// Record returns the query record as a series for stats.WindowStats and
// stats.PoolRange.
func (r Result) Record() stats.Series {
	return stats.Series{Arrivals: r.QueryArrivals, Values: r.PerQueryLatencies}
}

// PerNodeRequests mirrors the simulator's request-count scaling
// (sim.AppSpec): the measured request volume one node serves when a
// profile's request count is scaled by factor (floored at one request).
func PerNodeRequests(profileRequests int, factor float64) int {
	n := int(float64(profileRequests) * factor)
	if n < 1 {
		n = 1
	}
	return n
}

// PerNodeWarmup is PerNodeRequests for warmup counts (floored at zero).
func PerNodeWarmup(profileWarmup int, factor float64) int {
	n := int(float64(profileWarmup) * factor)
	if n < 0 {
		n = 0
	}
	return n
}

// SizeForPerNodeLoad fills the spec's query volume and global rate so every
// node serves perNodeRequests measured leaves (plus warmup) at the given
// mean leaf interarrival, whatever the fan-out: with M nodes and fan-out k,
// queries scale by M/k and the global query rate is M/k times the per-node
// leaf rate. Nodes and Fanout must be set first. Both command front-ends
// size their clusters through this one helper so CLI and experiment runs
// cannot drift apart.
func (s *Spec) SizeForPerNodeLoad(perNodeRequests, perNodeWarmup int, leafMeanInterarrival float64) {
	m, k := len(s.Nodes), s.Fanout
	q := perNodeRequests * m / k
	if q < 1 {
		q = 1
	}
	s.Queries = q
	s.WarmupQueries = perNodeWarmup * m / k
	s.QueryMeanInterarrival = leafMeanInterarrival * float64(k) / float64(m)
}

// Run plans, simulates and aggregates one cluster with no warm pool: RunAll
// on a one-spec list.
func Run(spec Spec, workers int) (Result, error) {
	res, err := RunAll([]Spec{spec}, []string{""}, workers, nil)
	if err != nil {
		return Result{}, err
	}
	return res[0], nil
}

// RunAll plans, simulates and aggregates a list of clusters as one schedule:
// every spec is validated and planned up front (serial), every (cluster, node)
// simulation of the whole list becomes one sim.Job of one flat list run by
// sim.RunJobs over workers goroutines (<= 0 = GOMAXPROCS), and each cluster's
// serial aggregator joins its leaf latencies into query latencies. The unit
// of scheduling is the node, so S clusters of M nodes keep up to S*M workers
// busy; results[i] belongs to specs[i], bit-identical at any workers value.
//
// Node simulations are memoized through pool (nil runs every node): a node
// job whose (policy, configuration, leaf arrival times, slots) identity
// repeats — the full-size nodes of a straggler-vs-uniform comparison,
// identical replicas across sweep variants — is simulated once. keys[i] is
// the sim.Job key of specs[i]'s nodes: it must uniquely name what the nodes'
// NewPolicy constructs (no key can see inside the closure), and an empty key
// runs them unpooled; a non-empty key also prefixes every error from its
// cluster.
func RunAll(specs []Spec, keys []string, workers int, pool *sim.WarmPool) ([]Result, error) {
	if len(keys) != len(specs) {
		return nil, fmt.Errorf("cluster: %d keys for %d specs", len(keys), len(specs))
	}
	named := func(c int, err error) error {
		if err == nil || keys[c] == "" {
			return err
		}
		return fmt.Errorf("%s: %w", keys[c], err)
	}
	type slot struct{ c, n int }
	var jobs []sim.Job
	var slots []slot
	plans := make([]*queryPlan, len(specs))
	sims := make([][]sim.Result, len(specs))
	for c, spec := range specs {
		err := spec.Validate()
		if err == nil {
			plans[c], err = buildPlan(spec)
		}
		if err != nil {
			return nil, named(c, err)
		}
		sims[c] = make([]sim.Result, len(spec.Nodes))
		for n := range spec.Nodes {
			job, ok, err := nodeJob(spec, plans[c], n, keys[c])
			if err != nil {
				return nil, named(c, err)
			}
			if ok {
				jobs, slots = append(jobs, job), append(slots, slot{c, n})
			}
		}
	}
	if err := sim.RunJobs(jobs, workers, pool, func(i int, res sim.Result, err error) error {
		c, n := slots[i].c, slots[i].n
		if err != nil {
			return named(c, fmt.Errorf("cluster: node %d: %w", n, err))
		}
		sims[c][n] = res
		return nil
	}); err != nil {
		return nil, err
	}
	out := make([]Result, len(specs))
	for c, spec := range specs {
		var err error
		if out[c], err = aggregate(spec, plans[c], sims[c]); err != nil {
			return nil, named(c, err)
		}
	}
	return out, nil
}

// nodeJob is node n of a planned cluster as a job: replay the leaf arrivals
// the front-end dealt it, under its fail-slow windows and rolling restarts.
// ok is false for a node routed around for the whole measured run (a long
// node-down window), which legitimately serves nothing: its slot stays empty
// and the aggregator skips it.
func nodeJob(spec Spec, plan *queryPlan, n int, schemeKey string) (job sim.Job, ok bool, err error) {
	node := spec.Nodes[n]
	times := plan.nodeTimes[n]
	warmup := plan.nodeWarmup[n]
	measured := len(times) - warmup
	if measured < 1 {
		if len(spec.Faults) > 0 {
			return sim.Job{}, false, nil
		}
		return sim.Job{}, false, fmt.Errorf("cluster: node %d received no measured leaves (only %d warmup); raise Queries or rebalance", n, warmup)
	}
	lc := node.LC
	lc.ArrivalTimes = times
	lc.ExplicitWarmup = warmup
	lc.Sched = workload.ScheduleSpec{} // the dealt times already carry the global schedule
	lc.SlowWindows = slowWindowsFor(spec.Faults, n)
	specs := make([]sim.AppSpec, 0, 1+len(node.Batch))
	specs = append(specs, lc)
	specs = append(specs, node.Batch...)
	return sim.Job{
		Config:    node.Config,
		Specs:     specs,
		NewPolicy: node.NewPolicy,
		Restarts:  restartsFor(spec.Faults, n),
		Key:       schemeKey,
	}, true, nil
}

// aggregate joins per-node leaf latencies into query latencies and builds the
// cluster result. Serial and allocation-light: this is the fan-out hot path
// the cluster benchmark pins.
func aggregate(spec Spec, plan *queryPlan, results []sim.Result) (Result, error) {
	m := len(spec.Nodes)
	quorum := spec.quorum()
	// Per-node LC results: their record holds the measured leaf latencies in
	// leaf order (the simulator's request-ID order), offset by the node's
	// warmup prefix.
	leaves := make([]sim.AppResult, m)
	for n := 0; n < m; n++ {
		want := len(plan.nodeTimes[n]) - plan.nodeWarmup[n]
		if want < 1 && len(spec.Faults) > 0 {
			// Node skipped by the runner (down for the whole measured run):
			// no measured query references its leaves, so its empty record
			// is never indexed.
			continue
		}
		lcs := results[n].LCResults()
		if len(lcs) != 1 {
			return Result{}, fmt.Errorf("cluster: node %d produced %d latency-critical results, want 1", n, len(lcs))
		}
		leaves[n] = lcs[0]
		if got := len(leaves[n].RequestLatencies); got != want {
			return Result{}, fmt.Errorf("cluster: node %d recorded %d measured leaves, want %d", n, got, want)
		}
	}
	latOf := func(ref leafRef) float64 {
		return leaves[ref.node].RequestLatencies[int(ref.index)-plan.nodeWarmup[ref.node]]
	}

	res := Result{
		Fanout:            spec.Fanout,
		Quorum:            quorum,
		Balancer:          string(spec.Balancer),
		PerQueryLatencies: make([]float64, 0, spec.Queries),
		QueryArrivals:     make([]uint64, 0, spec.Queries),
		Nodes:             make([]NodeResult, m),
	}

	total := spec.WarmupQueries + spec.Queries
	cands := make([]float64, 0, spec.Fanout+1)
	hedgeDelay := float64(spec.HedgeDelayCycles)
	for q := spec.WarmupQueries; q < total; q++ {
		cands = cands[:0]
		for _, ref := range plan.primaries[q] {
			cands = append(cands, latOf(ref))
		}
		lat := kthSmallest(cands, quorum)
		if h := plan.hedges[q]; h.node >= 0 {
			cands = append(cands, hedgeDelay+latOf(h))
			if hedged := kthSmallest(cands, quorum); hedged < lat {
				lat = hedged
				res.HedgeWins++
			}
		}
		res.PerQueryLatencies = append(res.PerQueryLatencies, lat)
		res.QueryArrivals = append(res.QueryArrivals, plan.arrivals[q])
	}
	// The sorted sample is derived once from the query record, adding in
	// query order so its running sum (and so Mean) matches the record's.
	res.QueryLatencies = stats.NewSample(len(res.PerQueryLatencies))
	res.QueryLatencies.AddAll(res.PerQueryLatencies)
	res.QueryLatencies.Sort()
	res.Queries = uint64(res.QueryLatencies.Len())

	// Per-node breakdowns over measured leaves (including hedge leaves: they
	// are real served requests), read from the node's own sorted latency
	// sample: it holds the record's latencies, summed in the same request
	// order. A node skipped for a whole-run node-down has none and reads 0.
	for n := 0; n < m; n++ {
		res.Nodes[n] = NodeResult{Sim: results[n]}
		if l := leaves[n].Latencies; l != nil {
			res.Nodes[n].Leaves = uint64(l.Len())
			res.Nodes[n].LeafMean = l.Mean()
			res.Nodes[n].LeafP95 = l.PercentileOrZero(95)
			res.Nodes[n].LeafP99 = l.PercentileOrZero(99)
		}
	}

	res.Mean = res.QueryLatencies.Mean()
	res.P95 = res.QueryLatencies.PercentileOrZero(95)
	res.P99 = res.QueryLatencies.PercentileOrZero(99)
	if tm, err := res.QueryLatencies.TailMean(spec.tailPercentile()); err == nil {
		res.TailMean = tm
	}
	return res, nil
}

// kthSmallest returns the k-th smallest value (1-based) of vals without
// allocating, using insertion sort — fan-outs are tiny (a handful of leaves),
// where insertion sort beats any general algorithm. vals is reordered.
func kthSmallest(vals []float64, k int) float64 {
	for i := 1; i < len(vals); i++ {
		v := vals[i]
		j := i - 1
		for j >= 0 && vals[j] > v {
			vals[j+1] = vals[j]
			j--
		}
		vals[j+1] = v
	}
	if k > len(vals) {
		k = len(vals)
	}
	return vals[k-1]
}

package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"repro/internal/parallel"
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
	// Windows holds the node's per-arrival-window leaf latency statistics
	// when Spec.WindowCycles is set (nil otherwise).
	Windows []stats.WindowStat
}

// Result is the outcome of a cluster run.
type Result struct {
	// Queries is the number of measured queries aggregated.
	Queries uint64
	// Fanout, Quorum and Balancer echo the resolved query model.
	Fanout, Quorum int
	Balancer       string
	// QueryLatencies holds the measured query latencies (quorum-joined).
	QueryLatencies *stats.Sample
	// PerQueryLatencies holds the same latencies in query arrival order
	// (percentile queries sort the sample's backing array in place; this
	// slice keeps its order). Read-only.
	PerQueryLatencies []float64
	// Mean, P95, P99 and TailMean summarise the query latencies; TailMean is
	// the mean beyond Spec.TailPercentile (the paper's tail metric, lifted to
	// queries).
	Mean, P95, P99, TailMean float64
	// HedgeWins counts measured queries whose hedged response displaced a
	// primary from the quorum (the hedge made the query faster).
	HedgeWins uint64
	// Nodes holds the per-node breakdowns, index-aligned with Spec.Nodes.
	Nodes []NodeResult
	// Windows and WindowSamples hold the per-arrival-window query-latency
	// statistics when Spec.WindowCycles is set (nil otherwise); pool ranges
	// with stats.PoolWindows exactly as for single-node windowed runs.
	Windows       []stats.WindowStat
	WindowSamples []*stats.Sample
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

// nodeKey is the warm-pool identity of one node simulation: the complete
// node machine configuration and app specs, the policy identity the caller
// vouches for (schemeKey — policy constructors are opaque closures, so the
// caller must key them uniquely within the pool's lifetime), and a SHA-256
// digest of the exact leaf arrival stream the front-end dealt the node
// (lossless in practice: a collision of the full 256-bit digest is beyond
// anything the fleet sizes here can produce, and keeping thousands of raw
// arrival times per key would defeat the pool). Two node runs with equal
// keys are the same deterministic computation — the straggler experiments
// re-simulate every healthy node once per cluster variant today, and this is
// what lets the pool collapse those repeats.
func nodeKey(node NodeSpec, schemeKey string, times []uint64, warmup int, slow []sim.SlowWindow, restarts []uint64) string {
	hash := sha256.New()
	var buf [8]byte
	for _, t := range times {
		binary.LittleEndian.PutUint64(buf[:], t)
		hash.Write(buf[:])
	}
	h := hash.Sum(nil)
	// Pointer fields (profiles) are fingerprinted by value — %#v of a struct
	// holding pointers would print addresses, which are meaningless as
	// identity.
	lc := node.LC
	var batch []string
	for _, b := range node.Batch {
		batch = append(batch, fmt.Sprintf("%#v|%d|%d", *b.Batch, b.ROIInstructions, b.Seed))
	}
	return fmt.Sprintf("clnode|%s|%#v|%#v|%v|%v|%d|%d|%v|%d|%v|warm=%d|slow=%v|restart=%v|times=%d:%x",
		schemeKey, node.Config.PoolIdentity(), *lc.LC, lc.Load, lc.MeanInterarrival, lc.TargetLines, lc.DeadlineCycles,
		lc.RequestFactor, lc.Seed, batch, warmup, slow, restarts, len(times), h)
}

// RunAll plans, simulates and aggregates a list of clusters as one schedule:
// every spec is validated and planned up front (serial), every (cluster, node)
// simulation of the whole list goes into one flat job list over at most
// workers goroutines (<= 1 runs inline), and each cluster's serial aggregator
// joins its leaf latencies into query latencies. The unit of scheduling is the
// node, so S clusters of M nodes keep up to S*M workers busy; results[i]
// belongs to specs[i], bit-identical at any workers value.
//
// Node simulations are memoized through pool (nil runs every node): a node
// whose (configuration, policy, leaf stream) identity repeats — the full-size
// nodes of a straggler-vs-uniform comparison, identical replicas across sweep
// variants — is simulated once. keys[i] must uniquely identify what specs[i]'s
// NewPolicy constructs (pool keys cannot see inside the closure); a non-empty
// key also prefixes every error from its cluster.
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
	type job struct{ c, n int }
	var jobs []job
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
			jobs = append(jobs, job{c, n})
		}
	}
	if err := parallel.For(len(jobs), workers, func(i int) (err error) {
		c, n := jobs[i].c, jobs[i].n
		sims[c][n], err = runNode(specs[c], plans[c], n, keys[c], pool)
		return named(c, err)
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

// runNode simulates node n of a planned cluster: replay the leaf arrivals the
// front-end dealt it, under its fail-slow windows and rolling restarts.
func runNode(spec Spec, plan *queryPlan, n int, schemeKey string, pool *sim.WarmPool) (sim.Result, error) {
	node := spec.Nodes[n]
	times := plan.nodeTimes[n]
	warmup := plan.nodeWarmup[n]
	measured := len(times) - warmup
	if measured < 1 {
		if len(spec.Faults) > 0 {
			// A node routed around for the whole measured run (a long
			// node-down window) legitimately serves nothing; leave its
			// slot empty and let the aggregator skip it.
			return sim.Result{}, nil
		}
		return sim.Result{}, fmt.Errorf("cluster: node %d received no measured leaves (only %d warmup); raise Queries or rebalance", n, warmup)
	}
	slow := slowWindowsFor(spec.Faults, n)
	restarts := restartsFor(spec.Faults, n)
	res, err := pool.Result(nodeKey(node, schemeKey, times, warmup, slow, restarts), func() (sim.Result, error) {
		lc := node.LC
		lc.Arrivals = workload.NewReplayArrivals(times)
		lc.ExplicitRequests = measured
		lc.ExplicitWarmup = warmup
		lc.Sched = workload.ScheduleSpec{} // the replayed stream already carries the global schedule
		lc.SlowWindows = slow
		specs := make([]sim.AppSpec, 0, 1+len(node.Batch))
		specs = append(specs, lc)
		specs = append(specs, node.Batch...)
		if len(restarts) == 0 {
			return sim.RunMix(node.Config, specs, node.NewPolicy())
		}
		// Rolling restart: run to each restart boundary, dump the node's
		// warm state (caches, monitors, policy), and continue. RunUntil
		// pauses only at scheduler pop boundaries, so the restarted run is
		// deterministic at any parallelism.
		s, err := sim.New(node.Config, specs, node.NewPolicy())
		if err != nil {
			return sim.Result{}, err
		}
		for _, r := range restarts {
			if err := s.RunUntil(r); err != nil {
				return sim.Result{}, err
			}
			if err := s.ColdRestart(node.NewPolicy()); err != nil {
				return sim.Result{}, err
			}
		}
		return s.Run()
	})
	if err != nil {
		return sim.Result{}, fmt.Errorf("cluster: node %d: %w", n, err)
	}
	return res, nil
}

// aggregate joins per-node leaf latencies into query latencies and builds the
// cluster result. Serial and allocation-light: this is the fan-out hot path
// the cluster benchmark pins.
func aggregate(spec Spec, plan *queryPlan, results []sim.Result) (Result, error) {
	m := len(spec.Nodes)
	quorum := spec.quorum()
	// Per-node measured leaf latencies in leaf order (the simulator's
	// request-ID order), offset by the node's warmup prefix.
	leafLat := make([][]float64, m)
	for n := 0; n < m; n++ {
		want := len(plan.nodeTimes[n]) - plan.nodeWarmup[n]
		if want < 1 && len(spec.Faults) > 0 {
			// Node skipped by the runner (down for the whole measured run):
			// no measured query references its leaves, so an empty slice is
			// never indexed.
			continue
		}
		lcs := results[n].LCResults()
		if len(lcs) != 1 {
			return Result{}, fmt.Errorf("cluster: node %d produced %d latency-critical results, want 1", n, len(lcs))
		}
		leafLat[n] = lcs[0].RequestLatencies
		if len(leafLat[n]) != want {
			return Result{}, fmt.Errorf("cluster: node %d recorded %d measured leaves, want %d", n, len(leafLat[n]), want)
		}
	}
	latOf := func(ref leafRef) float64 {
		return leafLat[ref.node][int(ref.index)-plan.nodeWarmup[ref.node]]
	}

	res := Result{
		Fanout:         spec.Fanout,
		Quorum:         quorum,
		Balancer:       string(spec.Balancer),
		QueryLatencies: stats.NewSample(spec.Queries),
		Nodes:          make([]NodeResult, m),
	}
	var queryWindows *stats.Windowed
	nodeWindows := make([]*stats.Windowed, m)
	if spec.WindowCycles > 0 {
		queryWindows = stats.NewWindowed(spec.WindowCycles)
		for n := range nodeWindows {
			nodeWindows[n] = stats.NewWindowed(spec.WindowCycles)
		}
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
		res.QueryLatencies.Add(lat)
		res.PerQueryLatencies = append(res.PerQueryLatencies, lat)
		if queryWindows != nil {
			queryWindows.Add(plan.arrivals[q], lat)
		}
	}
	res.Queries = uint64(res.QueryLatencies.Len())

	// Per-node breakdowns over measured leaves (including hedge leaves: they
	// are real served requests).
	for n := 0; n < m; n++ {
		leafSample := stats.NewSample(len(leafLat[n]))
		leafSample.AddAll(leafLat[n])
		nr := NodeResult{
			Sim:      results[n],
			Leaves:   uint64(leafSample.Len()),
			LeafMean: leafSample.Mean(),
			LeafP95:  leafSample.PercentileOrZero(95),
			LeafP99:  leafSample.PercentileOrZero(99),
		}
		if nodeWindows[n] != nil {
			for i, t := range plan.nodeTimes[n] {
				if i >= plan.nodeWarmup[n] {
					nodeWindows[n].Add(t, leafLat[n][i-plan.nodeWarmup[n]])
				}
			}
			nr.Windows = nodeWindows[n].Stats(spec.tailPercentile())
		}
		res.Nodes[n] = nr
	}

	res.Mean = res.QueryLatencies.Mean()
	res.P95 = res.QueryLatencies.PercentileOrZero(95)
	res.P99 = res.QueryLatencies.PercentileOrZero(99)
	if tm, err := res.QueryLatencies.TailMean(spec.tailPercentile()); err == nil {
		res.TailMean = tm
	}
	if queryWindows != nil {
		res.Windows = queryWindows.Stats(spec.tailPercentile())
		res.WindowSamples = queryWindows.SamplesCopy()
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

package experiment

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The cluster experiments lift the per-mix evaluation to the datacenter: a
// replicated latency-critical service where every user query fans out to k of
// M nodes and completes at its slowest leaf. cluster sweeps the fan-out for
// the five schemes (the tail-at-scale curve: the more leaves a query
// touches, the more the per-node tail is amplified into the query tail, and
// the more a scheme's tail protection matters); hetero plants one straggler
// node with a quarter of the LLC and shows how a single bad replica poisons
// the cluster tail with and without Ubik.

// clusterNodes is the fleet size of the cluster experiments.
const clusterNodes = 4

// clusterFanouts returns the fan-out sweep points for an M-node cluster:
// powers of two up to M.
func clusterFanouts(nodes int) []int {
	var ks []int
	for k := 1; k <= nodes; k *= 2 {
		ks = append(ks, k)
	}
	return ks
}

// clusterService is the replicated latency-critical service the cluster
// experiments drive.
const clusterService = "specjbb"

// clusterBaseline calibrates the replicated service at low load, at the
// scale's request factor.
func clusterBaseline(cfg sim.Config, scale Scale, service string) (sim.LCBaseline, float64, error) {
	profile, err := workload.LCByName(service)
	if err != nil {
		return sim.LCBaseline{}, 0, err
	}
	reqFactor := scale.requestFactor()
	base, err := sim.MeasureLCBaselinePooled(scale.Warm, cfg, profile, profile.TargetLines(), 0.2, reqFactor)
	if err != nil {
		return sim.LCBaseline{}, 0, err
	}
	return base, reqFactor, nil
}

// buildClusterSpec assembles an M-node cluster for one scheme: every node
// hosts one replica of the calibrated service plus the standard batch set,
// with its own derived seeds; stragglerIdx >= 0 shrinks that node's LLC to a
// quarter capacity — below the service's working set, so the straggler
// genuinely cannot hold the replica's footprint (the cluster-wide deadline
// and arrival rate stay at the healthy calibration). The global query rate is chosen
// so each node sees the baseline's per-node leaf rate at any fan-out.
func buildClusterSpec(cfg sim.Config, scale Scale, scheme Scheme, base sim.LCBaseline, reqFactor float64,
	nodes, fanout int, balancer cluster.BalancerKind, stragglerIdx int) (cluster.Spec, error) {
	specs := make([]cluster.NodeSpec, nodes)
	for i := 0; i < nodes; i++ {
		nodeCfg := cfg
		nodeCfg.Seed = workload.SplitSeed(scale.Seed, 0xC10+uint64(i))
		if i == stragglerIdx {
			nodeCfg.LLC = cache.DefaultZ452(cfg.LLC.Lines/4, cfg.LLC.Partitions)
		}
		if scheme.Unpartitioned {
			nodeCfg.LLC.Mode = cache.ModeLRU
		}
		profile := base.Profile
		node := cluster.NodeSpec{
			Config: nodeCfg,
			LC: sim.AppSpec{
				LC:               &profile,
				Load:             base.Load,
				MeanInterarrival: base.MeanInterarrival,
				DeadlineCycles:   uint64(base.TailLatency),
				Seed:             workload.SplitSeed(scale.Seed, 0xC1A0+uint64(i)),
			},
			NewPolicy: scheme.NewPolicy,
		}
		for _, name := range transientBatchNames() {
			p, err := workload.BatchByName(name)
			if err != nil {
				return cluster.Spec{}, err
			}
			batch := p
			node.Batch = append(node.Batch, sim.AppSpec{Batch: &batch, ROIInstructions: scale.BatchROI})
		}
		specs[i] = node
	}
	spec := cluster.Spec{
		Nodes:          specs,
		Fanout:         fanout,
		Balancer:       balancer,
		Seed:           workload.SplitSeed(scale.Seed, 0xC1),
		TailPercentile: cfg.TailPercentile,
	}
	spec.SizeForPerNodeLoad(cluster.PerNodeRequests(base.Profile.Requests, reqFactor),
		cluster.PerNodeWarmup(base.Profile.WarmupRequests, reqFactor), base.MeanInterarrival)
	return spec, nil
}

// ClusterTail runs the tail-at-scale experiment: query p95/p99 versus
// fan-out k for the five standard schemes on a 4-node cluster under
// round-robin balancing. The whole (scheme, fan-out, node) grid is one
// cluster.RunAll job list, so the tables are bit-identical at any
// parallelism.
func ClusterTail(cfg sim.Config, scale Scale) ([]Table, error) {
	return clusterTailTables(cfg, scale, StandardSchemes(), clusterNodes, clusterService)
}

// clusterTailTables is ClusterTail parameterised for tests (which drive a
// lighter service profile to stay fast).
func clusterTailTables(cfg sim.Config, scale Scale, schemes []Scheme, nodes int, service string) ([]Table, error) {
	scale = scale.withPool()
	base, reqFactor, err := clusterBaseline(cfg, scale, service)
	if err != nil {
		return nil, err
	}
	fanouts := clusterFanouts(nodes)
	var specs []cluster.Spec
	var keys []string
	for _, scheme := range schemes {
		for _, fanout := range fanouts {
			spec, err := buildClusterSpec(cfg, scale, scheme, base, reqFactor, nodes, fanout, cluster.BalanceRoundRobin, -1)
			if err != nil {
				return nil, err
			}
			specs, keys = append(specs, spec), append(keys, scheme.Name)
		}
	}
	runs, err := cluster.RunAll(specs, keys, scale.parallelism(), scale.Warm)
	if err != nil {
		return nil, err
	}

	var tables []Table
	for _, pct := range []float64{95, 99} {
		t := Table{
			ID: fmt.Sprintf("cluster-p%.0f", pct),
			Title: fmt.Sprintf("Query tail latency (p%.0f, cycles) vs fan-out k on %d nodes, rr balancer, full quorum",
				pct, nodes),
			Header: []string{"fanout", "queries"},
		}
		for _, s := range schemes {
			t.Header = append(t.Header, s.Name)
		}
		for fi, k := range fanouts {
			row := []string{fmt.Sprintf("%d", k), fmt.Sprintf("%d", runs[fi].Queries)}
			for si := range schemes {
				r := runs[si*len(fanouts)+fi]
				if pct == 95 {
					row = append(row, f0(r.P95))
				} else {
					row = append(row, f0(r.P99))
				}
			}
			t.Rows = append(t.Rows, row)
		}
		tables = append(tables, t)
	}

	// Per-node balance at the widest fan-out: how evenly each scheme's leaf
	// tails spread over the fleet.
	spread := Table{
		ID:     "cluster-nodes",
		Title:  fmt.Sprintf("Per-node leaf p95 at fan-out %d (cycles)", fanouts[len(fanouts)-1]),
		Header: []string{"scheme"},
	}
	for n := 0; n < nodes; n++ {
		spread.Header = append(spread.Header, fmt.Sprintf("node%d", n))
	}
	for si, s := range schemes {
		r := runs[si*len(fanouts)+len(fanouts)-1]
		row := []string{s.Name}
		for _, nr := range r.Nodes {
			row = append(row, f0(nr.LeafP95))
		}
		spread.Rows = append(spread.Rows, row)
	}
	tables = append(tables, spread)
	return tables, nil
}

// ClusterHetero runs the straggler experiment: a uniform 4-node cluster
// against one where node 3 has a quarter of the LLC, for LRU and Ubik across
// the fan-out sweep. The straggler keeps the healthy deadline and arrival rate —
// it simply serves its leaf share with less cache — so the comparison shows
// how much of the lost capacity each scheme lets leak into the user-visible
// query tail as fan-out makes every query more likely to touch the weak
// node.
func ClusterHetero(cfg sim.Config, scale Scale) ([]Table, error) {
	return clusterHeteroTables(cfg, scale, clusterNodes, clusterService)
}

// clusterHeteroTables is ClusterHetero parameterised for tests.
func clusterHeteroTables(cfg sim.Config, scale Scale, nodes int, service string) ([]Table, error) {
	scale = scale.withPool()
	base, reqFactor, err := clusterBaseline(cfg, scale, service)
	if err != nil {
		return nil, err
	}
	all := StandardSchemes()
	schemes := []Scheme{all[0], all[len(all)-1]} // LRU and Ubik
	fanouts := clusterFanouts(nodes)
	straggler := nodes - 1
	variants := []struct {
		name string
		idx  int
	}{{"uniform", -1}, {"straggler", straggler}}
	var specs []cluster.Spec
	var keys []string
	var labels [][]string
	for _, scheme := range schemes {
		for _, variant := range variants {
			for _, fanout := range fanouts {
				spec, err := buildClusterSpec(cfg, scale, scheme, base, reqFactor, nodes, fanout, cluster.BalanceRoundRobin, variant.idx)
				if err != nil {
					return nil, err
				}
				specs, keys = append(specs, spec), append(keys, scheme.Name)
				labels = append(labels, []string{scheme.Name, variant.name, fmt.Sprintf("%d", fanout)})
			}
		}
	}
	cells, err := cluster.RunAll(specs, keys, scale.parallelism(), scale.Warm)
	if err != nil {
		return nil, err
	}

	t := Table{
		ID: "hetero",
		Title: fmt.Sprintf("Straggler sensitivity: node %d at quarter LLC vs a uniform %d-node cluster (rr balancer, full quorum)",
			straggler, nodes),
		Header: []string{"scheme", "cluster", "fanout", "query_p95", "query_p99", fmt.Sprintf("node%d_leaf_p95", straggler)},
	}
	for i, res := range cells {
		t.Rows = append(t.Rows, append(labels[i], f0(res.P95), f0(res.P99), f0(res.Nodes[straggler].LeafP95)))
	}
	return []Table{t}, nil
}

package main

import (
	"fmt"
	"io"
	"path/filepath"
	"sync"

	"repro/internal/cacheserve"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/tracein"
)

// liveOps measures the cache on a scaled, warmed copy of live-qos: the mix at
// one and nproc clients (with the sampled latencies and hit ratios the mix
// yields), the governor's epoch, and each operation alone from a single
// goroutine.
func (l *ledger) liveOps() error {
	e := l.e
	div := e.sz.ledgerDiv
	q, err := newQoSMix(e, div, cacheserve.Config{SampleRate: 0.01})
	if err != nil {
		return err
	}
	defer q.close()
	empty := heapAlloc()
	q.run(e, l.root, e.sz.qosWarmOps/div, e.nproc)
	var cached int64
	for t := range q.tenants {
		cached += q.cache.TenantUsage(t)
	}
	l.put("cacheserve.heap_per_cached_byte", float64(heapAlloc()-empty)/float64(cached))

	ops := q.repOps
	var g1, gN, lcHit, batchHit, getNs, setNs []float64
	for i := 0; i < 3; i++ {
		id := l.tr.begin("bench.mix/g1", l.root)
		t0 := l.tr.do("bench.mix", id, ops, func() { q.run(e, id, ops, 1) })
		l.tr.end(id, ops)
		g1 = append(g1, float64(ops)/t0.Seconds()/1e6)

		id = l.tr.begin("bench.mix/gN", l.root)
		var tot mixTotals
		t0 = l.tr.do("bench.mix", id, ops, func() { tot = q.run(e, id, ops, e.nproc) })
		l.tr.end(id, ops)
		gN = append(gN, float64(ops)/t0.Seconds()/1e6)
		lcHit = append(lcHit, tot.hitRatio(0))
		batchHit = append(batchHit, tot.hitRatio(1))
		getNs = append(getNs, tot.getNs...)
		setNs = append(setNs, tot.setNs...)
	}
	l.put("cacheserve.mops_g1", g1...)
	l.put("cacheserve.mops_gN", gN...)
	l.put("cacheserve.scaling", median(gN)/median(g1)/float64(e.nproc))
	l.put("cacheserve.lc_hit_ratio", lcHit...)
	l.put("cacheserve.batch_hit_ratio", batchHit...)
	// Percentiles of pooled latency samples: report the sample count, not
	// the samples.
	for _, p := range []struct {
		name  string
		value float64
		n     int
	}{
		{"cacheserve.lc_get_p50_ns", median(getNs), len(getNs)},
		{"cacheserve.lc_get_p99_ns", tailQuantile(getNs, 0.99), len(getNs)},
		{"cacheserve.set_p99_ns", tailQuantile(setNs, 0.99), len(setNs)},
	} {
		l.out = append(l.out, metricValue{Name: p.name, Value: p.value, Unit: unitOf(perLayer, p.name), N: p.n})
	}
	l.put("cacheserve.quota_lc_frac", float64(q.cache.TenantQuota(0))/float64(q.capacity))
	l.put("cacheserve.quota_scan_frac", float64(q.cache.TenantQuota(2))/float64(q.capacity))

	// The generator alone: the same loop with the cache calls stubbed out.
	q.stub = true
	l.put("bench.gen_ns_per_op", l.seconds("bench.generator", ops, func() { q.run(e, l.root, ops, 1) })*1e9/float64(ops))
	q.stub = false

	var steps, setq, stats []float64
	var quotas []int64
	for i := 0; i < 15; i++ {
		steps = append(steps, 1e6*l.seconds("cacheserve.Governor.Step", 1, func() { quotas, err = q.gov.Step() }))
		if err != nil {
			return err
		}
		setq = append(setq, 1e6*l.seconds("cacheserve.Cache.SetQuotas", 1, func() { err = q.cache.SetQuotas(quotas) }))
		if err != nil {
			return err
		}
		stats = append(stats, 1e6*l.seconds("cacheserve.Cache.Stats", 1, func() { sink += uint64(len(q.cache.Stats())) }))
	}
	l.put("cacheserve.governor_step_p50_us", steps...)
	l.put("cacheserve.governor_step_max_us", sorted(steps)[len(steps)-1])
	l.put("cacheserve.setquotas_us", setq...)
	l.put("cacheserve.stats_us", stats...)

	// Single operations, one goroutine, on the lc tenant (whose quota holds
	// the probe's whole key set) and the scan tenant (which is at quota, so
	// every insert evicts).
	n := e.sz.probeOps
	val := make([]byte, qosValueSize)
	fillValue(val, 0, 0, 1)
	c := q.cache
	// The present set fills half the lc quota at most, so no shard evicts.
	fits := int(c.TenantQuota(0) / cacheserve.EntrySize(q.tenants[0].keys[0], val) / 2)
	present := q.tenants[0].keys[:min(len(q.tenants[0].keys), 16384, fits)]
	absent := renderKeys("absent", len(present))
	fresh := renderKeys("evict", n*batches)
	put := func(tenant int, keys []string, n int) error {
		for i := 0; i < n; i++ {
			if err := c.Set(tenant, keys[i%len(keys)], val, 0); err != nil {
				return err
			}
		}
		return nil
	}
	if err := put(0, present, len(present)); err != nil {
		return err
	}
	m0 := mallocs()
	hits := 0
	l.put("cacheserve.get_hit_ns", l.perCall("cacheserve.Cache.Get/hit", n, func(int) {
		for i := 0; i < n; i++ {
			if _, ok := c.Get(0, present[i%len(present)]); ok {
				hits++
			}
		}
	})...)
	l.put("cacheserve.allocs_per_get", float64(mallocs()-m0)/float64(n*batches))
	e.check(hits == n*batches, "ledger: %d of %d gets on present keys hit", hits, n*batches)
	l.put("cacheserve.get_miss_ns", l.perCall("cacheserve.Cache.Get/miss", n, func(int) {
		for i := 0; i < n; i++ {
			if _, ok := c.Get(0, absent[i%len(absent)]); ok {
				hits++
			}
		}
	})...)
	e.check(hits == n*batches, "ledger: a get on an absent key hit")
	m0 = mallocs()
	l.put("cacheserve.set_overwrite_ns", l.perCall("cacheserve.Cache.Set/overwrite", n, func(int) { err = put(0, present, n) })...)
	l.put("cacheserve.allocs_per_set", float64(mallocs()-m0)/float64(n*batches))
	if err != nil {
		return err
	}
	// Insert and delete alternate over the present set, a batch of each per
	// round, so every Set finds its key absent and every Delete finds it.
	var inserts, deletes []float64
	for b := 0; b < batches; b++ {
		np := len(present)
		deletes = append(deletes, 1e9/float64(np)*l.seconds("cacheserve.Cache.Delete", np, func() {
			for _, k := range present {
				if !c.Delete(0, k) {
					hits++
				}
			}
		}))
		inserts = append(inserts, 1e9/float64(np)*l.seconds("cacheserve.Cache.Set/insert", np, func() { err = put(0, present, np) }))
		if err != nil {
			return err
		}
	}
	e.check(hits == n*batches, "ledger: a delete missed a present key")
	l.put("cacheserve.set_insert_ns", inserts...)
	l.put("cacheserve.delete_ns", deletes...)
	before := c.Stats()[2].CapacityEvictions
	l.put("cacheserve.set_evict_ns", l.perCall("cacheserve.Cache.Set/evict", n, func(b int) {
		for i := 0; i < n && err == nil; i++ {
			err = c.Set(2, fresh[b*n+i], val, 0)
		}
	})...)
	if err != nil {
		return err
	}
	l.put("cacheserve.evictions_per_set", float64(c.Stats()[2].CapacityEvictions-before)/float64(n*batches))
	checkAccounting(e, "ledger", q.cache, q.capacity)
	return nil
}

// liveSidecars prices what rides along with a hit — UMON sampling and the
// metrics registry — as paired runs with and without it, and the sweeper on a
// churned cache.
func (l *ledger) liveSidecars() error {
	e := l.e
	n := e.sz.probeOps
	keys := renderKeys("k", 16384)
	val := make([]byte, qosValueSize)
	reg := metrics.NewRegistry()
	type variant struct {
		span  string
		cfg   cacheserve.Config
		cache *cacheserve.Cache
		ns    []float64
	}
	variants := []*variant{
		{span: "cacheserve.Cache.Get/plain"},
		{span: "cacheserve.Cache.Get/sampled", cfg: cacheserve.Config{SampleRate: 0.01}},
		{span: "cacheserve.Cache.Get/metrics", cfg: cacheserve.Config{Metrics: reg}},
	}
	for _, v := range variants {
		v.cfg.CapacityBytes = 8 << 20
		v.cfg.Tenants = []cacheserve.TenantConfig{{Name: "t"}}
		var err error
		if v.cache, err = cacheserve.New(v.cfg); err != nil {
			return err
		}
		defer v.cache.Close()
		for _, k := range keys {
			if err := v.cache.Set(0, k, val, 0); err != nil {
				return err
			}
		}
	}
	// Interleave the variants batch by batch so drift hits all three alike.
	for b := 0; b < batches; b++ {
		for _, v := range variants {
			v.ns = append(v.ns, 1e9/float64(n)*l.seconds(v.span, n, func() {
				for i := 0; i < n; i++ {
					if r, ok := v.cache.Get(0, keys[i%len(keys)]); ok {
						sink += uint64(len(r))
					}
				}
			}))
		}
	}
	l.put("cacheserve.sample_cost_ns", median(variants[1].ns)-median(variants[0].ns))
	l.put("cacheserve.metrics_cost_ns", median(variants[2].ns)-median(variants[0].ns))

	ctr := reg.ShardedCounter("bench_probe_total", "Ledger probe counter.", 8)
	l.put("metrics.inc_ns", l.perCall("metrics.ShardedCounter.Inc", n, func(int) {
		for i := 0; i < n; i++ {
			ctr.Inc(i)
		}
	})...)
	var writes []float64
	for i := 0; i < 10; i++ {
		var err error
		writes = append(writes, 1e3*l.seconds("metrics.Registry.WriteText", 1, func() { err = reg.WriteText(io.Discard) }))
		if err != nil {
			return err
		}
	}
	l.put("metrics.write_text_ms", writes...)

	// The sweeper, called by hand on a churn cache (no background sweeper)
	// after each burst of traffic has left short-TTL entries behind.
	churn, err := newChurnMix(e, 0)
	if err != nil {
		return err
	}
	defer churn.close()
	var sweeps []float64
	for i := 0; i < 3; i++ {
		churn.run(e, l.root, e.sz.churnWarmOps/e.sz.ledgerDiv, e.nproc)
		sweeps = append(sweeps, 1e3*l.seconds("cacheserve.Cache.Sweep", 1, func() { sink += uint64(churn.cache.Sweep()) }))
	}
	l.put("cacheserve.sweep_ms", sweeps...)
	checkAccounting(e, "ledger", churn.cache, churn.capacity)
	return nil
}

// liveReplay: replayer construction and a single-goroutine replay of the
// trace the tracein probes generated.
func (l *ledger) liveReplay() error {
	e := l.e
	tr, err := tracein.Open(filepath.Join(e.tmp, "ledger.ubiktrace"))
	if err != nil {
		return err
	}
	defer tr.Close()
	c, err := cacheserve.New(cacheserve.Config{
		CapacityBytes: e.sz.replayCapacity / int64(e.sz.ledgerDiv), SampleRate: 0.01,
		Tenants: []cacheserve.TenantConfig{{Name: "t0"}, {Name: "t1"}},
	})
	if err != nil {
		return err
	}
	defer c.Close()
	if _, err := cacheserve.NewGovernor(c, core.NewUbik(), cacheserve.GovernorConfig{}); err != nil {
		return err
	}
	var rp *cacheserve.Replayer
	l.put("cacheserve.replay_prep_s", l.seconds("cacheserve.NewReplayer", tr.Len(), func() { rp, err = cacheserve.NewReplayer(c, tr) }))
	if err != nil {
		return err
	}
	ops := tr.Len()
	var mops []float64
	for i := 0; i < 3; i++ {
		var ts []cacheserve.ReplayTenantStats
		s := l.seconds("cacheserve.Replayer.Run/g1", ops, func() { ts, err = rp.Run(ops, 1) })
		if err != nil {
			return err
		}
		var done uint64
		for _, t := range ts {
			done += t.Gets + t.Sets
		}
		e.check(done == uint64(ops), "ledger: replayed %d of %d ops", done, ops)
		mops = append(mops, float64(ops)/s/1e6)
	}
	l.put("cacheserve.replay_mops_g1", mops...)
	return nil
}

// refCache is the floor the cache's get and set are read against: one mutex
// and one map, with Set copying the value as cacheserve does.
type refCache struct {
	mu sync.Mutex
	m  map[string][]byte
}

func (r *refCache) get(k string) ([]byte, bool) {
	r.mu.Lock()
	v, ok := r.m[k]
	r.mu.Unlock()
	return v, ok
}

func (r *refCache) set(k string, v []byte) {
	c := append([]byte(nil), v...)
	r.mu.Lock()
	r.m[k] = c
	r.mu.Unlock()
}

func (l *ledger) references() error {
	n := l.e.sz.probeOps
	keys := renderKeys("k", 16384)
	val := make([]byte, qosValueSize)
	ref := &refCache{m: make(map[string][]byte, len(keys))}
	for _, k := range keys {
		ref.set(k, val)
	}
	hits := 0
	l.put("ref.mutex_map_get_ns", l.perCall("ref.get", n, func(int) {
		for i := 0; i < n; i++ {
			if _, ok := ref.get(keys[i%len(keys)]); ok {
				hits++
			}
		}
	})...)
	if hits != n*batches {
		return fmt.Errorf("reference map lost keys: %d of %d gets hit", hits, n*batches)
	}
	l.put("ref.mutex_map_set_ns", l.perCall("ref.set", n, func(int) {
		for i := 0; i < n; i++ {
			ref.set(keys[i%len(keys)], val)
		}
	})...)
	return nil
}

package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/cacheserve"
	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/tracein"
)

// All live workloads are closed loop: the clients are in-process goroutines
// that issue their next operation only when the previous one has returned,
// and there are nproc of them and no more.

// sampleStride is how often a client verifies (and, when traced, times) an
// operation: 1 in 61. 61 is prime, so it is coprime with every tenant and
// goroutine count and every tenant gets samples — the 1-in-64 stride of
// cmd/cacheserved and cacheserve.Replayer aliases with a round-robin tenant
// order and starves all tenants but the first.
const sampleStride = 61

func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Values are a function of (tenant, key, version): bytes 0-7 carry the
// version, 8-15 a tag mixing all three, and the rest repeat the tag's top
// byte, so a reader can verify any value it is handed — wrong tenant or key,
// a torn copy and a truncated buffer all fail.
const valueHeader = 16

func valueTag(tenant, key int, version uint64) uint64 {
	return mix64(uint64(tenant)<<48 ^ uint64(key)<<8 ^ mix64(version))
}

func fillValue(buf []byte, tenant, key int, version uint64) {
	tag := valueTag(tenant, key, version)
	binary.LittleEndian.PutUint64(buf, version)
	binary.LittleEndian.PutUint64(buf[8:], tag)
	if body := buf[valueHeader:]; len(body) > 0 {
		body[0] = byte(tag >> 56)
		for n := 1; n < len(body); n *= 2 {
			copy(body[n:], body[:n])
		}
	}
}

func verifyValue(v []byte, tenant, key int) bool {
	if len(v) < valueHeader {
		return false
	}
	tag := binary.LittleEndian.Uint64(v[8:])
	if tag != valueTag(tenant, key, binary.LittleEndian.Uint64(v)) {
		return false
	}
	for _, b := range v[valueHeader:] {
		if b != byte(tag>>56) {
			return false
		}
	}
	return true
}

// renderKeys prerenders a tenant's key space ("name-0000042") as substrings
// of one backing string, so set-up does not pay an allocation per key and
// the timed loop never formats.
func renderKeys(name string, n int) []string {
	var b strings.Builder
	width := len(name) + 8
	b.Grow(n * width)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%s-%07d", name, i)
	}
	all := b.String()
	keys := make([]string, n)
	for i := range keys {
		keys[i] = all[i*width : (i+1)*width]
	}
	return keys
}

type drawKind int

const (
	drawZipf drawKind = iota
	drawScan
	drawUniform
)

type liveTenant struct {
	cfg  cacheserve.TenantConfig
	draw drawKind
	keys []string
}

// keyDraw is one client's key generator for one tenant.
type keyDraw struct {
	kind drawKind
	n    int
	zipf *rand.Zipf
	rng  *rand.Rand
	pos  *int // scan cursor, kept across repetitions
}

func (d *keyDraw) next() int {
	switch d.kind {
	case drawZipf:
		return int(d.zipf.Uint64())
	case drawScan:
		k := *d.pos
		*d.pos = (k + 1) % d.n
		return k
	default:
		return d.rng.Intn(d.n)
	}
}

// liveMix is a cache, its governor and a synthetic client mix. Two op mixes
// exist: the read-mostly one (90% get with fill-on-miss, 10% set, fixed
// value size) and the churn one (50% set with table-drawn sizes, 40% get
// without fill, 10% delete).
type liveMix struct {
	name     string
	capacity int64
	cache    *cacheserve.Cache
	gov      *cacheserve.Governor
	tenants  []liveTenant
	govEvery int // worker 0 steps the governor every govEvery of its ops
	repOps   int // operations per timed repetition
	// figures reads the workload's two figures of merit off a repetition.
	figures func(m *liveMix, tot mixTotals) (qos, eff float64)
	churn   bool
	stub    bool // skip the cache calls: measures the generator alone
	scanPos [][]int
	reps    uint64
}

const qosValueSize = 128

// churnSizes is the fixed value-size table churn sets draw from; an
// overwrite usually changes the entry's size, which is what makes Set evict
// in batches.
var churnSizes = [...]int{64, 128, 256, 512, 1024, 2048}

// churnShortTTL is given to one churn set in eight: short enough that the
// entry is always dead before its key comes round again, whatever the
// machine's speed, so expiry and the sweeper work without the hit ratio
// depending on wall-clock time.
const churnShortTTL = time.Millisecond

// mixTotals is what one run of the mix did, per tenant, plus the sampled
// latencies of tenant 0's gets and of every set (traced runs only).
type mixTotals struct {
	gets, hits, sets []uint64
	sampled          []uint64 // operations the 1-in-sampleStride check fell on
	getNs, setNs     []float64
}

func (t *mixTotals) hitRatio(tenant int) float64 {
	if t.gets[tenant] == 0 {
		return 0
	}
	return float64(t.hits[tenant]) / float64(t.gets[tenant])
}

func (t *mixTotals) overallHitRatio() float64 {
	var g, h uint64
	for i := range t.gets {
		g += t.gets[i]
		h += t.hits[i]
	}
	if g == 0 {
		return 0
	}
	return float64(h) / float64(g)
}

// run issues ops operations from the given number of client goroutines and
// waits for them. Worker w's i-th operation goes to tenant i mod tenants.
func (m *liveMix) run(e *env, parent, ops, goroutines int) mixTotals {
	nt := len(m.tenants)
	for len(m.scanPos) < goroutines {
		w := len(m.scanPos)
		pos := make([]int, nt)
		for t := range pos {
			pos[t] = w * len(m.tenants[t].keys) / goroutines
		}
		m.scanPos = append(m.scanPos, pos)
	}
	m.reps++
	per := make([]mixTotals, goroutines)
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			m.client(e, parent, w, ops/goroutines, &per[w])
		}(w)
	}
	wg.Wait()
	e.count(int64(ops / goroutines * goroutines))

	out := mixTotals{gets: make([]uint64, nt), hits: make([]uint64, nt), sets: make([]uint64, nt), sampled: make([]uint64, nt)}
	for w := range per {
		for t := 0; t < nt; t++ {
			out.gets[t] += per[w].gets[t]
			out.hits[t] += per[w].hits[t]
			out.sets[t] += per[w].sets[t]
			out.sampled[t] += per[w].sampled[t]
		}
		out.getNs = append(out.getNs, per[w].getNs...)
		out.setNs = append(out.setNs, per[w].setNs...)
	}
	return out
}

func (m *liveMix) client(e *env, parent, w, n int, tot *mixTotals) {
	nt := len(m.tenants)
	tot.gets, tot.hits, tot.sets, tot.sampled = make([]uint64, nt), make([]uint64, nt), make([]uint64, nt), make([]uint64, nt)
	tr := e.tr
	wid := tr.begin("bench.client", parent)
	rng := rand.New(rand.NewSource(int64(mix64(e.seed ^ m.reps<<24 ^ uint64(w)<<8))))
	draws := make([]keyDraw, nt)
	for t, ten := range m.tenants {
		draws[t] = keyDraw{kind: ten.draw, n: len(ten.keys), rng: rng, pos: &m.scanPos[w][t]}
		if ten.draw == drawZipf {
			draws[t].zipf = rand.NewZipf(rng, 1.1, 1, uint64(len(ten.keys)-1))
		}
	}
	buf := make([]byte, churnSizes[len(churnSizes)-1])
	version := uint64(w)<<56 | m.reps<<32

	set := func(t, k int, size int, ttl time.Duration, timed bool) {
		version++
		fillValue(buf[:size], t, k, version)
		tot.sets[t]++
		if m.stub {
			return
		}
		var begin time.Time
		if timed {
			begin = time.Now()
		}
		err := m.cache.Set(t, m.tenants[t].keys[k], buf[:size], ttl)
		if timed {
			d := time.Since(begin)
			tot.setNs = append(tot.setNs, float64(d.Nanoseconds()))
			tr.record("cacheserve.Cache.Set", wid, begin, d)
		}
		if err != nil {
			e.fail(1, "%s: Set(%s): %v", m.name, m.tenants[t].keys[k], err)
		}
	}
	get := func(t, k int, sampled, timed bool) bool {
		tot.gets[t]++
		if m.stub {
			return true
		}
		var begin time.Time
		if timed {
			begin = time.Now()
		}
		v, ok := m.cache.Get(t, m.tenants[t].keys[k])
		if timed {
			d := time.Since(begin)
			if t == 0 {
				tot.getNs = append(tot.getNs, float64(d.Nanoseconds()))
			}
			tr.record("cacheserve.Cache.Get", wid, begin, d)
		}
		if ok {
			tot.hits[t]++
			if sampled && !verifyValue(v, t, k) {
				e.fail(1, "%s: hit on %s returned a value that fails verification", m.name, m.tenants[t].keys[k])
			}
		}
		return ok
	}

	for i := 0; i < n; i++ {
		t := i % nt
		k := draws[t].next()
		r := rng.Uint64()
		sampled := i%sampleStride == 0
		timed := sampled && tr != nil
		if sampled {
			tot.sampled[t]++
		}
		switch op := r % 10; {
		case m.churn && op < 5:
			ttl := time.Duration(0)
			if (r>>16)%8 == 0 {
				ttl = churnShortTTL
			}
			set(t, k, churnSizes[(r>>8)%uint64(len(churnSizes))], ttl, timed)
		case m.churn && op < 9:
			get(t, k, sampled, timed)
		case m.churn:
			if !m.stub {
				m.cache.Delete(t, m.tenants[t].keys[k])
			}
		case op == 0:
			set(t, k, qosValueSize, 0, timed)
		default:
			if !get(t, k, sampled, timed) {
				set(t, k, qosValueSize, 0, timed) // fill on miss, as a real service would
			}
		}
		if w == 0 && m.gov != nil && !m.stub && i > 0 && i%m.govEvery == 0 {
			tr.do("cacheserve.Governor.Step", wid, 1, func() {
				if _, err := m.gov.Step(); err != nil {
					e.fail(1, "%s: Governor.Step: %v", m.name, err)
				}
			})
		}
	}
	tr.end(wid, n)
}

// checkAccounting checks the byte accounting after the clients have stopped:
// every tenant within its quota and the tenants together within capacity.
func checkAccounting(e *env, name string, c *cacheserve.Cache, capacity int64) {
	var used int64
	for t := 0; t < c.NumTenants(); t++ {
		u, q := c.TenantUsage(t), c.TenantQuota(t)
		e.check(u <= q, "%s: tenant %s uses %d bytes over its quota %d", name, c.Tenant(t).Name, u, q)
		used += u
	}
	e.check(used <= capacity, "%s: tenants use %d bytes over capacity %d", name, used, capacity)
}

// fillFraction is the share of the capacity that holds entries.
func fillFraction(c *cacheserve.Cache, capacity int64) float64 {
	var used int64
	for t := 0; t < c.NumTenants(); t++ {
		used += c.TenantUsage(t)
	}
	return float64(used) / float64(capacity)
}

func (m *liveMix) tenantConfigs() []cacheserve.TenantConfig {
	out := make([]cacheserve.TenantConfig, len(m.tenants))
	for i, t := range m.tenants {
		out[i] = t.cfg
	}
	return out
}

func (m *liveMix) rep(e *env, parent int) (repResult, error) {
	tot := m.run(e, parent, m.repOps, e.nproc)
	qos, eff := m.figures(m, tot)
	return repResult{work: float64(m.repOps), qos: qos, eff: eff}, nil
}

func (m *liveMix) finish(e *env) { checkAccounting(e, m.name, m.cache, m.capacity) }
func (m *liveMix) close()        { m.cache.Close() }

// --- live-qos --------------------------------------------------------------

// newQoSMix builds the paper's scenario on the live plant: a latency-critical
// zipf tenant whose hot set fits its reserve, a cacheable zipf batch tenant
// and a scanning batch tenant larger than the whole cache, under a Ubik
// governor stepped on an op-count cadence (so the quota trajectory does not
// depend on the machine's speed). div shrinks the whole shape for the
// ledger's own copy.
func newQoSMix(e *env, div int, cfg cacheserve.Config) (*liveMix, error) {
	keys := e.sz.qosKeys / div
	m := &liveMix{
		name:     "live-qos",
		capacity: e.sz.qosCapacity / int64(div),
		govEvery: e.sz.qosGovEvery / div,
		repOps:   e.sz.qosRepOps / div,
		// The LC tenant's miss ratio; the cacheable batch tenant's hit ratio.
		figures: func(_ *liveMix, tot mixTotals) (float64, float64) { return 1 - tot.hitRatio(0), tot.hitRatio(1) },
		tenants: []liveTenant{
			{cfg: cacheserve.TenantConfig{Name: "lc", LatencyCritical: true, TargetBytes: e.sz.qosLCTarget / int64(div)}, draw: drawZipf, keys: renderKeys("lc", keys)},
			{cfg: cacheserve.TenantConfig{Name: "batch-zipf"}, draw: drawZipf, keys: renderKeys("batch-zipf", 2*keys)},
			{cfg: cacheserve.TenantConfig{Name: "batch-scan"}, draw: drawScan, keys: renderKeys("batch-scan", 4*keys)},
		},
	}
	cfg.CapacityBytes = m.capacity
	cfg.Tenants = m.tenantConfigs()
	var err error
	if m.cache, err = cacheserve.New(cfg); err != nil {
		return nil, err
	}
	if cfg.SampleRate > 0 {
		if m.gov, err = cacheserve.NewGovernor(m.cache, core.NewUbik(), cacheserve.GovernorConfig{}); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func setupLiveQoS(e *env) (instance, error) {
	m, err := newQoSMix(e, 1, cacheserve.Config{SampleRate: 0.01})
	if err != nil {
		return nil, err
	}
	m.run(e, 0, e.sz.qosWarmOps, e.nproc)
	return m, nil
}

// --- live-churn ------------------------------------------------------------

func newChurnMix(e *env, sweep time.Duration) (*liveMix, error) {
	m := &liveMix{
		name:     "live-churn",
		capacity: e.sz.churnCapacity,
		govEvery: e.sz.qosGovEvery,
		repOps:   e.sz.churnRepOps,
		churn:    true,
		// The split between two tenants of equal, flat utility wanders under
		// UCP, so the figures are read off both together: the get miss ratio,
		// and the share of the capacity holding entries when the repetition ends.
		figures: func(m *liveMix, tot mixTotals) (float64, float64) {
			return 1 - tot.overallHitRatio(), fillFraction(m.cache, m.capacity)
		},
		tenants: []liveTenant{
			{cfg: cacheserve.TenantConfig{Name: "b0"}, draw: drawUniform, keys: renderKeys("b0", e.sz.churnKeys)},
			{cfg: cacheserve.TenantConfig{Name: "b1"}, draw: drawUniform, keys: renderKeys("b1", e.sz.churnKeys)},
		},
	}
	var err error
	m.cache, err = cacheserve.New(cacheserve.Config{
		CapacityBytes: m.capacity, SampleRate: 0.01, DefaultTTL: 2 * time.Second, SweepInterval: sweep,
		Tenants: m.tenantConfigs(),
	})
	if err != nil {
		return nil, err
	}
	// The floor keeps every per-shard quota above the largest entry, so no
	// Set is refused however the policy splits the space.
	if m.gov, err = cacheserve.NewGovernor(m.cache, policy.NewUCP(), cacheserve.GovernorConfig{MinTenantBytes: m.capacity / 16}); err != nil {
		return nil, err
	}
	return m, nil
}

func setupLiveChurn(e *env) (instance, error) {
	m, err := newChurnMix(e, 250*time.Millisecond)
	if err != nil {
		return nil, err
	}
	m.run(e, 0, e.sz.churnWarmOps, e.nproc)
	return m, nil
}

// --- live-replay -----------------------------------------------------------

type liveReplay struct {
	trace *tracein.Trace
	cache *cacheserve.Cache
	gov   *cacheserve.Governor
	rp    *cacheserve.Replayer
	cap   int64
}

func replayGenSpec(e *env, records int) tracein.GenSpec {
	return tracein.GenSpec{Kind: tracein.KindKV, Gen: tracein.GenMixed, Records: records, Apps: 2, Keys: e.sz.replayKeys, Seed: e.seed}
}

// setupLiveReplay does what `cacheserved -trace-file` does before its timer
// starts: generate the recording, map it, build the cache and the replayer,
// start the wall-clock governor; then one untimed pass over the trace.
func setupLiveReplay(e *env) (instance, error) {
	path := filepath.Join(e.tmp, "replay.ubiktrace")
	gen, err := tracein.GenerateFile(path, replayGenSpec(e, e.sz.replayRecords))
	if err != nil {
		return nil, err
	}
	gen.Close()
	w := &liveReplay{cap: e.sz.replayCapacity}
	if w.trace, err = tracein.Open(path); err != nil {
		return nil, err
	}
	w.cache, err = cacheserve.New(cacheserve.Config{
		CapacityBytes: w.cap, SampleRate: 0.01,
		Tenants: []cacheserve.TenantConfig{{Name: "t0"}, {Name: "t1"}},
	})
	if err != nil {
		w.trace.Close()
		return nil, err
	}
	if w.gov, err = cacheserve.NewGovernor(w.cache, core.NewUbik(), cacheserve.GovernorConfig{Epoch: 50 * time.Millisecond}); err != nil {
		w.close()
		return nil, err
	}
	if w.rp, err = cacheserve.NewReplayer(w.cache, w.trace); err != nil {
		w.close()
		return nil, err
	}
	w.gov.Start()
	if _, err := w.rep(e, 0); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

func (w *liveReplay) rep(e *env, parent int) (repResult, error) {
	ops := e.sz.replayRepOps
	var ts []cacheserve.ReplayTenantStats
	var err error
	e.tr.do("cacheserve.Replayer.Run", parent, ops, func() { ts, err = w.rp.Run(ops, e.nproc) })
	if err != nil {
		e.check(false, "live-replay: Run: %v", err)
		return repResult{}, err
	}
	var gets, sets, hits uint64
	for _, t := range ts {
		gets += t.Gets
		sets += t.Sets
		hits += t.Hits
	}
	e.count(int64(ops))
	e.check(gets+sets == uint64(ops), "live-replay: replayed %d gets + %d sets, asked for %d ops", gets, sets, ops)
	if gets == 0 {
		return repResult{}, fmt.Errorf("live-replay: the trace replayed no gets")
	}
	// The wall-clock governor leaves per-tenant quotas that differ from run
	// to run (t0's miss ratio 0.115–0.138, bytes cached 0.80–1.00 of
	// capacity over ten runs); only the two-tenant totals repeat, so both
	// figures are read off them.
	return repResult{work: float64(ops), qos: 1 - float64(hits)/float64(gets), eff: float64(hits) / float64(gets)}, nil
}

func (w *liveReplay) finish(e *env) {
	w.gov.Stop()
	checkAccounting(e, "live-replay", w.cache, w.cap)
}

func (w *liveReplay) close() {
	if w.gov != nil {
		w.gov.Stop()
	}
	w.cache.Close()
	w.trace.Close()
}

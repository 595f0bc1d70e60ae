// Package experiment regenerates every table and figure of the paper's
// evaluation (Section 3 characterization and Section 7 results) on top of the
// simulator: load-latency curves, service-time CDFs, the LLC reuse breakdown,
// the 400-mix policy comparison, per-application results on OOO and in-order
// cores, slack sensitivity, partitioning-scheme sensitivity, and two ablations
// of Ubik's design choices.
package experiment

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"repro/internal/cache"
	"repro/internal/mix"
	"repro/internal/parallel"
	"repro/internal/policy"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Scale selects how much of the paper-scale evaluation to run. The paper
// simulated over 10^15 instructions; the scaled defaults keep every experiment
// runnable on a laptop while preserving the result shapes.
type Scale struct {
	// RequestFactor multiplies each latency-critical profile's request count.
	RequestFactor float64
	// MixesPerLC is how many batch mixes each latency-critical configuration
	// is paired with (40 = the full matrix).
	MixesPerLC int
	// BatchROI is the batch applications' region of interest in instructions.
	BatchROI uint64
	// LoadPoints is the number of load points in the Figure 1 load sweep.
	LoadPoints int
	// Seed drives mix selection and all run randomness.
	Seed uint64
	// Parallelism bounds concurrent simulations (0 = GOMAXPROCS), at the mix
	// level and below it: load-sweep points, per-instance isolation baselines
	// and baseline cache warming all shard over the same worker count.
	// Results are bit-identical at any setting (each shard is an independent,
	// seed-determined simulation whose output lands in an index-addressed
	// slot).
	Parallelism int
	// Warm is the warm pool the experiment's runs go through: exactly-repeated
	// calibration/isolation/baseline runs are memoized, and sweeps that share
	// a warmup prefix (the flash-crowd magnitude sweep) warm once per scheme
	// and fork each sweep point from the snapshot. Every reuse is
	// exact-identity keyed or quiescence-verified, so tables are
	// byte-identical to re-warming every run (pinned by the golden table
	// digests in golden_test.go). Leave nil: each experiment entry point
	// allocates its own through withPool. Set it explicitly (as
	// cmd/experiments does) to share warm state across several experiments in
	// one invocation.
	Warm *sim.WarmPool

	// Deprecated: ignored — sub-mix work always shards over Parallelism;
	// kept only until bench/ stops assigning it.
	SubMixSharding bool
	// Deprecated: ignored — experiments always run through a warm pool; kept
	// only until bench/ stops assigning it.
	WarmReuse bool
}

// withPool gives the scale a fresh warm pool unless the caller shared one.
func (s Scale) withPool() Scale {
	if s.Warm == nil {
		s.Warm = sim.NewWarmPool()
	}
	return s
}

// QuickScale is sized for benchmarks and smoke tests (minutes for the whole
// suite).
func QuickScale() Scale {
	return Scale{RequestFactor: 0.08, MixesPerLC: 1, BatchROI: 300_000, LoadPoints: 4, Seed: 1}
}

// DefaultScale is the development default: small but statistically meaningful.
func DefaultScale() Scale {
	return Scale{RequestFactor: 0.25, MixesPerLC: 4, BatchROI: 600_000, LoadPoints: 6, Seed: 1}
}

// FullScale approximates the paper's evaluation breadth (all 400 mixes, full
// request counts); expect hours of runtime.
func FullScale() Scale {
	return Scale{RequestFactor: 1.0, MixesPerLC: 40, BatchROI: 1_500_000, LoadPoints: 9, Seed: 1}
}

func (s Scale) parallelism() int {
	if s.Parallelism > 0 {
		return s.Parallelism
	}
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	return n
}

func (s Scale) requestFactor() float64 {
	if s.RequestFactor <= 0 {
		return 1
	}
	return s.RequestFactor
}

// Scheme bundles a management policy with the cache organisation it runs on.
// The LRU scheme uses an unpartitioned cache; everything else uses the
// configured partitioned array.
type Scheme struct {
	// Name labels the scheme in tables ("LRU", "UCP", ...).
	Name string
	// NewPolicy builds a fresh policy instance per run (policies are stateful).
	NewPolicy func() policy.Policy
	// Unpartitioned switches the LLC to ModeLRU for this scheme.
	Unpartitioned bool
}

// catalogued builds a table scheme from the scenario layer's scheme catalogue
// — the single place a scheme name becomes a policy and a cache organisation —
// under the display name the tables print.
func catalogued(display, name string, slack float64) Scheme {
	r, err := scenario.ResolveScheme(name, slack)
	if err != nil {
		panic(err) // every caller passes a literal catalogue name
	}
	return Scheme{Name: display, NewPolicy: r.NewPolicy, Unpartitioned: r.Unpartitioned}
}

// StandardSchemes returns the five schemes of Figures 9-11: LRU, UCP, OnOff,
// StaticLC and Ubik with the paper's default 5% slack.
func StandardSchemes() []Scheme {
	return []Scheme{
		catalogued("LRU", "lru", 0),
		catalogued("UCP", "ucp", 0),
		catalogued("OnOff", "onoff", 0),
		catalogued("StaticLC", "staticlc", 0),
		catalogued("Ubik", "ubik", 0.05),
	}
}

// UbikSlackSchemes returns the Figure 12 slack sweep (0%, 1%, 5%, 10%).
func UbikSlackSchemes() []Scheme {
	var out []Scheme
	for _, slack := range []float64{0, 0.01, 0.05, 0.10} {
		out = append(out, catalogued(fmt.Sprintf("Ubik slack=%g%%", slack*100), "ubik", slack))
	}
	return out
}

// instanceSeed returns the deterministic seed used for instance i of a
// latency-critical configuration, shared between the mix run and the matching
// isolation baseline so their request streams are identical.
func instanceSeed(scaleSeed uint64, lc mix.LCConfig, instance int) uint64 {
	h := uint64(1469598103934665603)
	for _, b := range []byte(lc.Name()) {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return workload.SplitSeed(scaleSeed^h, uint64(instance)+1)
}

// Baselines caches the isolation measurements every comparison needs: per
// LC-configuration service-time calibration, pooled isolated tail latencies on
// matched seeds, and per batch application isolated IPCs.
type Baselines struct {
	cfg   sim.Config
	scale Scale

	mu       sync.Mutex
	lc       map[string]sim.LCBaseline
	lcPooled map[string]*stats.Sample
	batchIPC map[string]float64
}

// NewBaselines returns an empty baseline cache for the given machine
// configuration and scale.
func NewBaselines(cfg sim.Config, scale Scale) *Baselines {
	return &Baselines{
		cfg:      cfg,
		scale:    scale,
		lc:       make(map[string]sim.LCBaseline),
		lcPooled: make(map[string]*stats.Sample),
		batchIPC: make(map[string]float64),
	}
}

// memo returns m[key], computing and storing it on first use. compute runs
// outside the lock; racing first uses compute the same deterministic value.
func memo[T any](b *Baselines, m map[string]T, key string, compute func() (T, error)) (T, error) {
	b.mu.Lock()
	v, ok := m[key]
	b.mu.Unlock()
	if ok {
		return v, nil
	}
	v, err := compute()
	if err == nil {
		b.mu.Lock()
		m[key] = v
		b.mu.Unlock()
	}
	return v, err
}

// LC returns (computing on first use) the calibration baseline for an LC
// configuration: mean service time, arrival rate for its load, and its
// isolated tail latency (the deadline).
func (b *Baselines) LC(lc mix.LCConfig) (sim.LCBaseline, error) {
	return memo(b, b.lc, lc.Name(), func() (sim.LCBaseline, error) {
		return sim.MeasureLCBaselinePooled(b.scale.Warm, b.cfg, lc.App, lc.App.TargetLines(), lc.Level.Value(), b.scale.requestFactor())
	})
}

// isolated runs instance i of an LC configuration alone, with exactly the seed
// the mix instance uses, and returns its request latencies.
func (b *Baselines) isolated(lc mix.LCConfig, i int) ([]float64, error) {
	base, err := b.LC(lc)
	if err != nil {
		return nil, err
	}
	res, err := sim.RunIsolatedLCPooled(b.scale.Warm, b.cfg, lc.App, lc.App.TargetLines(), base.MeanInterarrival,
		b.scale.requestFactor(), instanceSeed(b.scale.Seed, lc, i))
	if err != nil {
		return nil, err
	}
	lcRes := res.LCResults()
	if len(lcRes) != 1 {
		return nil, fmt.Errorf("experiment: isolation run returned %d LC results", len(lcRes))
	}
	return lcRes[0].Latencies.Values(), nil
}

// pooledIsolated returns (computing on first use) the configuration's isolated
// latencies pooled in instance order; latencies supplies instance i's.
func (b *Baselines) pooledIsolated(lc mix.LCConfig, latencies func(i int) ([]float64, error)) (*stats.Sample, error) {
	return memo(b, b.lcPooled, lc.Name(), func() (*stats.Sample, error) {
		pooled := stats.NewSample(256)
		for i := 0; i < lc.Instances; i++ {
			lat, err := latencies(i)
			if err != nil {
				return nil, err
			}
			pooled.AddAll(lat)
		}
		return pooled, nil
	})
}

// PooledIsolatedTail returns the pooled isolated tail latency across the
// configuration's instances, run with exactly the seeds the mix instances use.
// A cold key runs its instances serially (the caller may be a worker); Sweep
// warms every key through one flat list first.
func (b *Baselines) PooledIsolatedTail(lc mix.LCConfig, percentile float64) (float64, error) {
	pooled, err := b.pooledIsolated(lc, func(i int) ([]float64, error) { return b.isolated(lc, i) })
	if err != nil {
		return 0, err
	}
	b.mu.Lock() // tail queries sort the shared sample in place
	defer b.mu.Unlock()
	return pooled.TailMean(percentile)
}

// BatchIPC returns (computing on first use) the isolated IPC of a batch
// application on a private target-sized LLC.
func (b *Baselines) BatchIPC(p workload.BatchProfile) (float64, error) {
	return memo(b, b.batchIPC, p.Name, func() (float64, error) {
		return sim.MeasureBatchBaselineIPCPooled(b.scale.Warm, b.cfg, p, sim.LinesFor2MB, b.scale.BatchROI)
	})
}

// MixRecord is the outcome of running one mix under one scheme.
type MixRecord struct {
	// Mix identifies the workload mix.
	Mix mix.Mix
	// Scheme is the management scheme's name.
	Scheme string
	// TailDegradation is the pooled LC tail latency normalised to the pooled
	// isolated tail (1.0 = no degradation).
	TailDegradation float64
	// WeightedSpeedup is the batch weighted speedup vs private LLCs.
	WeightedSpeedup float64
	// PooledTailCycles is the raw pooled tail latency.
	PooledTailCycles float64
	// BaselineTailCycles is the pooled isolated tail latency.
	BaselineTailCycles float64
}

// RunMixScheme runs one mix under one scheme and computes its record.
func RunMixScheme(cfg sim.Config, scale Scale, baselines *Baselines, m mix.Mix, scheme Scheme) (MixRecord, error) {
	base, err := baselines.LC(m.LC)
	if err != nil {
		return MixRecord{}, err
	}
	baseTail, err := baselines.PooledIsolatedTail(m.LC, cfg.TailPercentile)
	if err != nil {
		return MixRecord{}, err
	}
	var batchBaselines []float64
	for _, p := range m.Batch.Apps {
		ipc, err := baselines.BatchIPC(p)
		if err != nil {
			return MixRecord{}, err
		}
		batchBaselines = append(batchBaselines, ipc)
	}

	runCfg := cfg
	if scheme.Unpartitioned {
		runCfg.LLC.Mode = cache.ModeLRU
	}
	var specs []sim.AppSpec
	for i := 0; i < m.LC.Instances; i++ {
		app := m.LC.App
		specs = append(specs, sim.AppSpec{
			LC:               &app,
			Load:             m.LC.Level.Value(),
			MeanInterarrival: base.MeanInterarrival,
			DeadlineCycles:   uint64(base.TailLatency),
			RequestFactor:    scale.requestFactor(),
			Seed:             instanceSeed(scale.Seed, m.LC, i),
		})
	}
	for i := range m.Batch.Apps {
		p := m.Batch.Apps[i]
		specs = append(specs, sim.AppSpec{Batch: &p, ROIInstructions: scale.BatchROI})
	}
	res, err := sim.RunMix(runCfg, specs, scheme.NewPolicy())
	if err != nil {
		return MixRecord{}, err
	}
	ws, err := res.WeightedSpeedup(batchBaselines)
	if err != nil {
		return MixRecord{}, err
	}
	pooled := res.PooledLCTail(cfg.TailPercentile)
	rec := MixRecord{
		Mix:                m,
		Scheme:             scheme.Name,
		PooledTailCycles:   pooled,
		BaselineTailCycles: baseTail,
		WeightedSpeedup:    ws,
	}
	if baseTail > 0 {
		rec.TailDegradation = pooled / baseTail
	}
	return rec, nil
}

// Sweep runs every mix under every scheme, in parallel across mixes, and
// returns all records. Baseline caches are warmed first, sharded across the
// worker pool, so the mix jobs never race to compute the same baseline key.
func Sweep(cfg sim.Config, scale Scale, baselines *Baselines, mixes []mix.Mix, schemes []Scheme) ([]MixRecord, error) {
	type job struct {
		m mix.Mix
		s Scheme
	}
	var jobs []job
	for _, m := range mixes {
		for _, s := range schemes {
			jobs = append(jobs, job{m: m, s: s})
		}
	}
	if err := warmBaselines(cfg, scale, baselines, mixes); err != nil {
		return nil, err
	}

	records := make([]MixRecord, len(jobs))
	err := parallel.For(len(jobs), scale.parallelism(), func(i int) error {
		var err error
		records[i], err = RunMixScheme(cfg, scale, baselines, jobs[i].m, jobs[i].s)
		return err
	})
	if err != nil {
		return nil, err
	}
	return records, nil
}

// warmBaselines populates the baseline caches for every distinct
// latency-critical configuration and batch profile the mixes reference, one
// flat job list per dependency phase (each key is computed exactly once; the
// computations are independent, seed-determined simulations, so warming order
// cannot affect any value).
func warmBaselines(cfg sim.Config, scale Scale, baselines *Baselines, mixes []mix.Mix) error {
	var lcs []mix.LCConfig
	seenLC := map[string]bool{}
	var batches []workload.BatchProfile
	seenBatch := map[string]bool{}
	for _, m := range mixes {
		if key := m.LC.Name(); !seenLC[key] {
			seenLC[key] = true
			lcs = append(lcs, m.LC)
		}
		for _, p := range m.Batch.Apps {
			if !seenBatch[p.Name] {
				seenBatch[p.Name] = true
				batches = append(batches, p)
			}
		}
	}
	// Phase 1, what depends on nothing: every calibration and batch IPC.
	workers := scale.parallelism()
	if err := parallel.For(len(lcs)+len(batches), workers, func(i int) error {
		var err error
		if i < len(lcs) {
			_, err = baselines.LC(lcs[i])
		} else {
			_, err = baselines.BatchIPC(batches[i-len(lcs)])
		}
		return err
	}); err != nil {
		return err
	}
	// Phase 2, what needs a calibrated arrival rate: every (configuration,
	// instance) isolation run in one list, then pooled per configuration.
	type instance struct{ lc, i int }
	var instances []instance
	for l, lc := range lcs {
		for i := 0; i < lc.Instances; i++ {
			instances = append(instances, instance{l, i})
		}
	}
	runs := make([][]float64, len(instances))
	if err := parallel.For(len(runs), workers, func(k int) error {
		var err error
		runs[k], err = baselines.isolated(lcs[instances[k].lc], instances[k].i)
		return err
	}); err != nil {
		return err
	}
	for _, lc := range lcs {
		mine := runs[:lc.Instances]
		if _, err := baselines.pooledIsolated(lc, func(i int) ([]float64, error) { return mine[i], nil }); err != nil {
			return err
		}
		runs = runs[lc.Instances:]
	}
	return nil
}

// MixesFor builds the (possibly sampled) mix list for the given scale.
func MixesFor(scale Scale) ([]mix.Mix, error) {
	lcs := mix.LCConfigs(3)
	batches, err := mix.BatchMixes(2, scale.Seed)
	if err != nil {
		return nil, err
	}
	all := mix.Matrix(lcs, batches)
	perLC := scale.MixesPerLC
	if perLC <= 0 || perLC >= len(batches) {
		return all, nil
	}
	return mix.Sample(all, perLC*len(lcs), scale.Seed), nil
}

// filterRecords returns the records matching the scheme and predicate.
func filterRecords(records []MixRecord, scheme string, keep func(MixRecord) bool) []MixRecord {
	var out []MixRecord
	for _, r := range records {
		if r.Scheme != scheme {
			continue
		}
		if keep != nil && !keep(r) {
			continue
		}
		out = append(out, r)
	}
	return out
}

// sortedValues extracts and sorts a metric from records.
func sortedValues(records []MixRecord, metric func(MixRecord) float64, descending bool) []float64 {
	out := make([]float64, 0, len(records))
	for _, r := range records {
		out = append(out, metric(r))
	}
	sort.Float64s(out)
	if descending {
		for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
			out[i], out[j] = out[j], out[i]
		}
	}
	return out
}

// summaryRow is the [name, avg tail degradation, worst tail degradation, avg
// weighted speedup] row the per-configuration summary tables share.
func summaryRow(name string, recs []MixRecord) []string {
	tail := func(r MixRecord) float64 { return r.TailDegradation }
	return []string{name, f3(mean(recs, tail)), f3(maxOf(recs, tail)),
		f3(mean(recs, func(r MixRecord) float64 { return r.WeightedSpeedup }))}
}

// mean averages a metric over records.
func mean(records []MixRecord, metric func(MixRecord) float64) float64 {
	if len(records) == 0 {
		return 0
	}
	var sum float64
	for _, r := range records {
		sum += metric(r)
	}
	return sum / float64(len(records))
}

// maxOf returns the maximum of a metric over records.
func maxOf(records []MixRecord, metric func(MixRecord) float64) float64 {
	max := 0.0
	for _, r := range records {
		if v := metric(r); v > max {
			max = v
		}
	}
	return max
}

// Package experiment regenerates every table and figure of the paper's
// evaluation (Section 3 characterization and Section 7 results) on top of the
// simulator: load-latency curves, service-time CDFs, the LLC reuse breakdown,
// the 400-mix policy comparison, per-application results on OOO and in-order
// cores, slack sensitivity, partitioning-scheme sensitivity, and two ablations
// of Ubik's design choices.
package experiment

import (
	"fmt"
	"sort"

	"repro/internal/cache"
	"repro/internal/mix"
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
	// Parallelism bounds concurrent simulations (<= 0 = GOMAXPROCS): every
	// job list an experiment hands sim.RunJobs — calibrations, isolation
	// baselines, load-sweep points, mix and cluster node runs — runs on at
	// most this many workers. Results are bit-identical at any setting (each
	// job is an independent, seed-determined simulation whose output lands in
	// its own slot).
	Parallelism int
	// Warm is the warm pool the experiment's runs go through: exactly-repeated
	// calibration/isolation/baseline runs are memoized. Every reuse is
	// exact-identity keyed, so tables are byte-identical to re-running every
	// run (pinned by the golden table digests in golden_test.go). Leave nil:
	// each entry point whose runs can repeat (sweeps, cluster grids)
	// allocates its own through withPool. Set it explicitly (as
	// cmd/experiments does) to share warm state across several experiments in
	// one invocation.
	Warm *sim.WarmPool

	// Deprecated: ignored — sub-mix work always shards over Parallelism;
	// kept only until bench/ stops assigning it.
	SubMixSharding bool
	// Deprecated: ignored — runs that can repeat always go through a warm
	// pool; kept only until bench/ stops assigning it.
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

// schemeConfig is the machine a scheme runs on: the unpartitioned schemes
// (LRU) switch the LLC to ModeLRU.
func schemeConfig(cfg sim.Config, unpartitioned bool) sim.Config {
	if unpartitioned {
		cfg.LLC.Mode = cache.ModeLRU
	}
	return cfg
}

// jobList is one dependency phase of a fan-out: jobs, each with the closure
// that keeps what the experiment needs of its result, on the worker that ran
// it; a keep writes only to its own job's slots.
type jobList struct {
	jobs  []sim.Job
	keeps []func(sim.Result) error
}

func (l *jobList) add(j sim.Job, keep func(sim.Result) error) {
	l.jobs = append(l.jobs, j)
	l.keeps = append(l.keeps, keep)
}

// run runs the list through sim.RunJobs (workers <= 0 = GOMAXPROCS).
func (l *jobList) run(workers int, pool *sim.WarmPool) error {
	return sim.RunJobs(l.jobs, workers, pool, func(i int, res sim.Result, err error) error {
		if err != nil {
			return err
		}
		return l.keeps[i](res)
	})
}

// lcBaselines measures the isolation baselines (Section 6) of out, each
// given as a Profile at a Load, in two phases: calibrate adds one calibration
// per distinct profile; once that list has run, measure sets each arrival
// spacing and adds the load run, whose tail is the deadline.
type lcBaselines struct {
	cfg       sim.Config
	reqFactor float64
	out       []sim.LCBaseline
}

func (b *lcBaselines) calibrate(l *jobList) {
	seen := map[string]bool{}
	for _, t := range b.out {
		p := t.Profile
		if seen[p.Name] {
			continue
		}
		seen[p.Name] = true
		l.add(sim.CalibrationJob(b.cfg, p, p.TargetLines(), b.reqFactor), func(res sim.Result) error {
			for k := range b.out {
				if b.out[k].Profile.Name == p.Name {
					b.out[k].MeanServiceCycles = res.Apps[0].MeanServiceTime
				}
			}
			return nil
		})
	}
}

func (b *lcBaselines) measure(l *jobList) error {
	for k := range b.out {
		base := &b.out[k]
		var err error
		if base.MeanInterarrival, err = workload.MeanInterarrivalForLoad(base.MeanServiceCycles, base.Load); err != nil {
			return err
		}
		p := base.Profile
		l.add(sim.BaselineJob(b.cfg, p, p.TargetLines(), base.Load, base.MeanInterarrival, b.reqFactor), func(res sim.Result) error {
			base.MeanLatency, base.TailLatency = res.Apps[0].MeanLatency, res.Apps[0].TailLatency
			return nil
		})
	}
	return nil
}

// measureBaselines runs both phases of lcBaselines as two job lists.
func measureBaselines(cfg sim.Config, targets []sim.LCBaseline, reqFactor float64, workers int, pool *sim.WarmPool) ([]sim.LCBaseline, error) {
	b := &lcBaselines{cfg, reqFactor, targets}
	var calib, runs jobList
	b.calibrate(&calib)
	if err := calib.run(workers, pool); err != nil {
		return nil, err
	}
	if err := b.measure(&runs); err != nil {
		return nil, err
	}
	if err := runs.run(workers, pool); err != nil {
		return nil, err
	}
	return b.out, nil
}

// serviceBaseline measures the named latency-critical service's baseline at
// low load (0.2) and reqFactor, which it returns alongside.
func serviceBaseline(cfg sim.Config, scale Scale, service string, reqFactor float64) (sim.LCBaseline, float64, error) {
	profile, err := workload.LCByName(service)
	if err != nil {
		return sim.LCBaseline{}, 0, err
	}
	bases, err := measureBaselines(cfg, []sim.LCBaseline{{Profile: profile, Load: 0.2}}, reqFactor, scale.Parallelism, scale.Warm)
	if err != nil {
		return sim.LCBaseline{}, 0, err
	}
	return bases[0], reqFactor, nil
}

// Baselines is the warm pool a mix comparison's isolation measurements
// (Section 6) go through: per LC-configuration service-time calibration and
// load baseline, pooled isolated tail latencies on matched seeds, and per
// batch application isolated IPCs. They are measured on the machine, seed
// and request factor the sweep is given, so they always match its mixes;
// the pool memoizes each run by exact identity.
type Baselines struct {
	pool *sim.WarmPool
}

// NewBaselines returns baselines measured through the scale's warm pool, or
// through a fresh one when the scale shares none. The configuration is
// ignored (a sweep measures its baselines on its own machine); the parameter
// stays only until bench/ stops passing it.
func NewBaselines(_ sim.Config, scale Scale) *Baselines {
	return &Baselines{pool: scale.withPool().Warm}
}

// lcKey identifies a latency-critical configuration within a sweep group.
type lcKey struct {
	name      string
	instances int
}

// isolation is what a group of mixes is normalised against, measured once
// per distinct LC configuration and batch application by calibrate, measure
// and pool, each after the previous phase's list has run.
type isolation struct {
	cfg     sim.Config
	scale   Scale
	lcs     []mix.LCConfig
	lcIndex map[lcKey]int
	base    *lcBaselines        // index-aligned with lcs
	lats    [][]*stats.Sample   // per lcs entry, per instance
	tails   []float64           // pooled isolated tail per lcs entry
	ipcs    map[string]*float64 // per batch application
}

// calibrate collects the distinct LC configurations and batch applications
// of mixes, in first-seen order, and adds what depends on nothing: every
// calibration and batch IPC, on cfg at scale.
func calibrate(l *jobList, cfg sim.Config, scale Scale, mixes []mix.Mix) *isolation {
	iso := &isolation{cfg: cfg, scale: scale, lcIndex: map[lcKey]int{}, ipcs: map[string]*float64{},
		base: &lcBaselines{cfg: cfg, reqFactor: scale.requestFactor()}}
	for _, m := range mixes {
		k := lcKey{m.LC.Name(), m.LC.Instances}
		if _, ok := iso.lcIndex[k]; !ok {
			iso.lcIndex[k] = len(iso.lcs)
			iso.lcs = append(iso.lcs, m.LC)
			iso.base.out = append(iso.base.out, sim.LCBaseline{Profile: m.LC.App, Load: m.LC.Level.Value()})
		}
		for _, p := range m.Batch.Apps {
			if iso.ipcs[p.Name] == nil {
				ipc := new(float64)
				iso.ipcs[p.Name] = ipc
				l.add(sim.BatchBaselineJob(cfg, p, sim.LinesFor2MB, scale.BatchROI), func(res sim.Result) error {
					*ipc = res.Apps[0].IPC
					return nil
				})
			}
		}
	}
	iso.base.calibrate(l)
	return iso
}

// measure adds what needs a calibrated arrival spacing: every load baseline
// and every (configuration, instance) isolation run, on exactly the seed the
// mix instance uses.
func (iso *isolation) measure(l *jobList) error {
	if err := iso.base.measure(l); err != nil {
		return err
	}
	iso.lats = make([][]*stats.Sample, len(iso.lcs))
	for c, lc := range iso.lcs {
		iso.lats[c] = make([]*stats.Sample, lc.Instances)
		for i := range lc.Instances {
			l.add(sim.IsolatedLCJob(iso.cfg, lc.App, lc.App.TargetLines(), iso.base.out[c].MeanInterarrival,
				iso.scale.requestFactor(), instanceSeed(iso.scale.Seed, lc, i)), func(res sim.Result) error {
				iso.lats[c][i] = res.Apps[0].Latencies
				return nil
			})
		}
	}
	return nil
}

// pool pools each configuration's isolated instance latencies into its tail.
func (iso *isolation) pool(percentile float64) error {
	iso.tails = make([]float64, len(iso.lcs))
	for c, lats := range iso.lats {
		pooled := stats.NewSample(256)
		for _, lat := range lats {
			pooled.AddAll(lat.Values())
		}
		var err error
		if iso.tails[c], err = pooled.TailMean(percentile); err != nil {
			return err
		}
	}
	return nil
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

// addMix adds the run of mix m under scheme s on the isolation runs'
// machine: its LC instances at the calibrated arrival spacing and deadline,
// on the seeds their isolation runs used, plus its batch apps. Its keep sets
// *rec.
func (iso *isolation) addMix(l *jobList, m mix.Mix, s Scheme, rec *MixRecord) {
	cfg, scale := iso.cfg, iso.scale
	c := iso.lcIndex[lcKey{m.LC.Name(), m.LC.Instances}]
	base := iso.base.out[c]
	var specs []sim.AppSpec
	for i := range m.LC.Instances {
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
	var ipcs []float64
	for _, p := range m.Batch.Apps {
		specs = append(specs, sim.AppSpec{Batch: &p, ROIInstructions: scale.BatchROI})
		ipcs = append(ipcs, *iso.ipcs[p.Name])
	}
	l.add(sim.Job{Config: schemeConfig(cfg, s.Unpartitioned), Specs: specs, NewPolicy: s.NewPolicy}, func(res sim.Result) error {
		baseTail := iso.tails[c]
		ws, err := res.WeightedSpeedup(ipcs)
		if err != nil {
			return err
		}
		pooled := res.PooledLCTail(cfg.TailPercentile)
		*rec = MixRecord{Mix: m, Scheme: s.Name, PooledTailCycles: pooled, BaselineTailCycles: baseTail, WeightedSpeedup: ws}
		if baseTail > 0 {
			rec.TailDegradation = pooled / baseTail
		}
		return nil
	})
}

// Sweep runs every mix under every scheme and returns the records in (mix,
// scheme) order: a sweep of one group. The isolation runs use cfg and scale
// too; baselines supplies only the warm pool.
func Sweep(cfg sim.Config, scale Scale, baselines *Baselines, mixes []mix.Mix, schemes []Scheme) ([]MixRecord, error) {
	records, err := sweep(scale, baselines.pool, []sweepGroup{{cfg, mixes, schemes}})
	if err != nil {
		return nil, err
	}
	return records[0], nil
}

// sweepGroup is one machine's share of a sweep: every mix under every scheme
// on cfg, normalised against isolation runs on the same machine.
type sweepGroup struct {
	cfg     sim.Config
	mixes   []mix.Mix
	schemes []Scheme
}

// sweep runs all groups as three job lists: {every calibration ∪ batch IPC},
// {every load baseline ∪ isolation instance}, {every (mix, scheme) run}, each
// mix job carrying its deadline, arrival spacing, pooled isolated tail and
// batch IPCs as values. records[g] is group g's, in (mix, scheme) order.
func sweep(scale Scale, pool *sim.WarmPool, groups []sweepGroup) ([][]MixRecord, error) {
	isos := make([]*isolation, len(groups))
	var calib, measure, mixes jobList
	for g, grp := range groups {
		isos[g] = calibrate(&calib, grp.cfg, scale, grp.mixes)
	}
	if err := calib.run(scale.Parallelism, pool); err != nil {
		return nil, err
	}
	for _, iso := range isos {
		if err := iso.measure(&measure); err != nil {
			return nil, err
		}
	}
	if err := measure.run(scale.Parallelism, pool); err != nil {
		return nil, err
	}
	records := make([][]MixRecord, len(groups))
	for g, grp := range groups {
		if err := isos[g].pool(grp.cfg.TailPercentile); err != nil {
			return nil, err
		}
		records[g] = make([]MixRecord, len(grp.mixes)*len(grp.schemes))
		for i, m := range grp.mixes {
			for j, s := range grp.schemes {
				isos[g].addMix(&mixes, m, s, &records[g][i*len(grp.schemes)+j])
			}
		}
	}
	if err := mixes.run(scale.Parallelism, pool); err != nil {
		return nil, err
	}
	return records, nil
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

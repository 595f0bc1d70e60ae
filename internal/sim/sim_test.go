package sim

import (
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/policy"
	"repro/internal/trace"
	"repro/internal/workload"
)

// testConfig returns a small, fast configuration for unit tests.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Seed = 7
	return cfg
}

// smallLC returns a reduced copy of a built-in LC profile for quick tests.
func smallLC(t *testing.T, name string) workload.LCProfile {
	t.Helper()
	p, err := workload.LCByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func smallBatch(t *testing.T, name string) workload.BatchProfile {
	t.Helper()
	p, err := workload.BatchByName(name)
	if err != nil {
		t.Fatal(err)
	}
	p.ROIInstructions = 200_000
	return p
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := DefaultConfig()
	bad.ReconfigIntervalCycles = 0
	if err := bad.Validate(); err == nil {
		t.Errorf("zero interval should be invalid")
	}
	bad = DefaultConfig()
	bad.TailPercentile = 100
	if err := bad.Validate(); err == nil {
		t.Errorf("percentile 100 should be invalid")
	}
	bad = DefaultConfig()
	bad.UMONWays = 0
	if err := bad.Validate(); err == nil {
		t.Errorf("zero UMON ways should be invalid")
	}
	bad = DefaultConfig()
	bad.MissCurvePoints = 1
	if err := bad.Validate(); err == nil {
		t.Errorf("single-point curves should be invalid")
	}
	bad = DefaultConfig()
	bad.LCCheckAccessInterval = 0
	if err := bad.Validate(); err == nil {
		t.Errorf("zero check interval should be invalid")
	}
	bad = DefaultConfig()
	bad.LLC.Lines = 0
	if err := bad.Validate(); err == nil {
		t.Errorf("invalid LLC should be rejected")
	}
	bad = DefaultConfig()
	bad.Core.MemLatencyCycles = 0
	if err := bad.Validate(); err == nil {
		t.Errorf("invalid core model should be rejected")
	}
}

// TestPoolIdentityDropsWallClockKnobs pins the memoization contract: two
// configurations differing only in an observational field (the trace sink)
// share one pool identity.
func TestPoolIdentityDropsWallClockKnobs(t *testing.T) {
	a := DefaultConfig()
	b := DefaultConfig()
	b.Trace = trace.NewRecorder(16).NewSink(0)
	if a.PoolIdentity() != b.PoolIdentity() {
		t.Error("PoolIdentity should be identical with and without a trace sink")
	}
	if a == b {
		t.Error("test needs the raw configs to differ")
	}
}

func TestAppSpecValidate(t *testing.T) {
	lc := smallLC(t, "masstree")
	batch := smallBatch(t, "mcf")
	good := []AppSpec{
		{LC: &lc, Load: 0.2},
		{LC: &lc, MeanInterarrival: 1000},
		{Batch: &batch},
	}
	for i, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("spec %d should be valid: %v", i, err)
		}
	}
	bad := []AppSpec{
		{},
		{LC: &lc, Batch: &batch},
		{LC: &lc},            // no load
		{LC: &lc, Load: 1.5}, // out of range
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %d should be invalid", i)
		}
	}
	if (AppSpec{LC: &lc}).Name() != "masstree" || (AppSpec{Batch: &batch}).Name() != "mcf" || (AppSpec{}).Name() != "empty" {
		t.Errorf("spec names wrong")
	}
	if (AppSpec{LC: &lc}).targetLines() != lc.TargetLines() {
		t.Errorf("default target lines wrong")
	}
	if (AppSpec{LC: &lc, TargetLines: 77}).targetLines() != 77 {
		t.Errorf("explicit target lines ignored")
	}
	if (AppSpec{Batch: &batch}).targetLines() != 0 {
		t.Errorf("batch target lines should be 0")
	}
	spec := AppSpec{LC: &lc, RequestFactor: 0.1}
	if spec.requestCount() != lc.Requests/10 {
		t.Errorf("request factor not applied: %d", spec.requestCount())
	}
	if (AppSpec{LC: &lc}).requestCount() != lc.Requests {
		t.Errorf("default request count wrong")
	}
	if (AppSpec{Batch: &batch}).roiInstructions() != batch.ROIInstructions {
		t.Errorf("batch ROI default wrong")
	}
	if (AppSpec{Batch: &batch, ROIInstructions: 42}).roiInstructions() != 42 {
		t.Errorf("batch ROI override wrong")
	}
}

func TestNewSimulatorErrors(t *testing.T) {
	cfg := testConfig()
	lc := smallLC(t, "masstree")
	if _, err := New(cfg, nil, policy.NewLRU()); err == nil {
		t.Errorf("no apps should fail")
	}
	if _, err := New(cfg, []AppSpec{{LC: &lc, MeanInterarrival: 1000}}, nil); err == nil {
		t.Errorf("nil policy should fail")
	}
	if _, err := New(cfg, []AppSpec{{}}, policy.NewLRU()); err == nil {
		t.Errorf("invalid spec should fail")
	}
	if _, err := New(cfg, []AppSpec{{LC: &lc, Load: 0.2}}, policy.NewLRU()); err == nil {
		t.Errorf("LC app without calibrated interarrival should fail")
	}
	bad := cfg
	bad.TailPercentile = 0
	if _, err := New(bad, []AppSpec{{LC: &lc, MeanInterarrival: 1000}}, policy.NewLRU()); err == nil {
		t.Errorf("invalid config should fail")
	}
}

func TestBatchOnlyRun(t *testing.T) {
	cfg := testConfig()
	b1 := smallBatch(t, "mcf")
	b2 := smallBatch(t, "libquantum")
	res, err := RunMix(cfg, []AppSpec{{Batch: &b1}, {Batch: &b2}}, policy.NewUCP())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.BatchResults()) != 2 || len(res.LCResults()) != 0 {
		t.Fatalf("expected 2 batch results")
	}
	for _, a := range res.BatchResults() {
		if a.IPC <= 0 {
			t.Errorf("batch app %s has nonpositive IPC", a.Name)
		}
		if a.Instructions < 200_000 {
			t.Errorf("batch app %s did not retire its ROI: %d", a.Name, a.Instructions)
		}
		if a.MissRate < 0 || a.MissRate > 1 {
			t.Errorf("miss rate out of range: %v", a.MissRate)
		}
	}
	if res.Cycles == 0 {
		t.Errorf("run should have advanced time")
	}
	if res.Policy != "UCP" {
		t.Errorf("policy name not recorded")
	}
}

func TestCalibrateServiceAndBaseline(t *testing.T) {
	cfg := testConfig()
	profile := smallLC(t, "masstree")
	base, err := MeasureLCBaseline(cfg, profile, profile.TargetLines(), 0.2, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if base.MeanServiceCycles <= 0 {
		t.Errorf("mean service time should be positive")
	}
	if base.MeanInterarrival <= base.MeanServiceCycles {
		t.Errorf("at 20%% load the interarrival should be ~5x the service time: %v vs %v",
			base.MeanInterarrival, base.MeanServiceCycles)
	}
	if base.TailLatency < base.MeanLatency {
		t.Errorf("tail latency below mean latency")
	}
	if base.TailLatency <= 0 {
		t.Errorf("tail latency should be positive")
	}
	// The interarrival should correspond to the requested load.
	gotLoad := base.MeanServiceCycles / base.MeanInterarrival
	if gotLoad < 0.15 || gotLoad > 0.25 {
		t.Errorf("calibrated load %v far from 0.2", gotLoad)
	}
}

func TestBatchBaselineIPC(t *testing.T) {
	cfg := testConfig()
	b := smallBatch(t, "milc")
	ipc, err := MeasureBatchBaselineIPC(cfg, b, LinesFor2MB, 150_000)
	if err != nil {
		t.Fatal(err)
	}
	if ipc <= 0 || ipc > 4 {
		t.Errorf("baseline IPC %v out of plausible range", ipc)
	}
	// A streaming app's IPC should be lower than an insensitive app's.
	ins := smallBatch(t, "povray")
	ipcIns, err := MeasureBatchBaselineIPC(cfg, ins, LinesFor2MB, 150_000)
	if err != nil {
		t.Fatal(err)
	}
	if ipcIns <= ipc {
		t.Errorf("insensitive app IPC (%v) should exceed streaming app IPC (%v)", ipcIns, ipc)
	}
}

// smallMixReqFactor trims the shared small-mix runs so the whole package
// stays fast while every assertion still sees hundreds of requests.
const smallMixReqFactor = 0.12

var (
	smallMixMu        sync.Mutex
	smallMixBaselines = map[cpu.Kind]LCBaseline{}
)

// smallMixBaseline calibrates (once per core kind — every small-mix test uses
// the same configuration, so recalibrating per test would only repeat
// identical simulations) the isolated baseline the small mixes run against.
func smallMixBaseline(t *testing.T, cfg Config, lc workload.LCProfile) LCBaseline {
	t.Helper()
	smallMixMu.Lock()
	defer smallMixMu.Unlock()
	if base, ok := smallMixBaselines[cfg.Core.Kind]; ok {
		return base
	}
	base, err := MeasureLCBaseline(cfg, lc, lc.TargetLines(), 0.2, smallMixReqFactor)
	if err != nil {
		t.Fatal(err)
	}
	smallMixBaselines[cfg.Core.Kind] = base
	return base
}

// runSmallMix runs a 2 LC + 2 batch mix under the given policy.
func runSmallMix(t *testing.T, pol policy.Policy, coreKind cpu.Kind) Result {
	t.Helper()
	cfg := testConfig()
	cfg.Core = cpu.DefaultModel(coreKind)
	cfg.LLC = cache.DefaultZ452(4*LinesFor2MB, 4)
	lc := smallLC(t, "specjbb")
	batch1 := smallBatch(t, "mcf")
	batch2 := smallBatch(t, "libquantum")

	base := smallMixBaseline(t, cfg, lc)
	specs := []AppSpec{
		{LC: &lc, Load: 0.2, MeanInterarrival: base.MeanInterarrival, DeadlineCycles: uint64(base.TailLatency), RequestFactor: smallMixReqFactor},
		{LC: &lc, Load: 0.2, MeanInterarrival: base.MeanInterarrival, DeadlineCycles: uint64(base.TailLatency), RequestFactor: smallMixReqFactor, Seed: 999},
		{Batch: &batch1},
		{Batch: &batch2},
	}
	res, err := RunMix(cfg, specs, pol)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestMixRunAllPolicies(t *testing.T) {
	if testing.Short() {
		t.Skip("mix runs are slow")
	}
	policies := []policy.Policy{
		policy.NewLRU(), policy.NewUCP(), policy.NewStaticLC(), policy.NewOnOff(),
		core.NewUbik(), core.NewUbikWithSlack(0.05),
	}
	for _, pol := range policies {
		pol := pol
		t.Run(pol.Name(), func(t *testing.T) {
			t.Parallel()
			res := runSmallMix(t, pol, cpu.OutOfOrder)
			lcs := res.LCResults()
			if len(lcs) != 2 {
				t.Fatalf("expected 2 LC results, got %d", len(lcs))
			}
			for _, a := range lcs {
				if a.Requests == 0 {
					t.Errorf("%s: no measured requests", a.Name)
				}
				if a.TailLatency <= 0 || a.MeanLatency <= 0 {
					t.Errorf("%s: missing latency stats", a.Name)
				}
				if a.TailLatency < a.MeanLatency {
					t.Errorf("%s: tail below mean", a.Name)
				}
				if len(a.ReuseBreakdown) == 0 {
					t.Errorf("%s: missing reuse breakdown", a.Name)
				}
			}
			for _, a := range res.BatchResults() {
				if a.IPC <= 0 {
					t.Errorf("%s: nonpositive IPC", a.Name)
				}
			}
			if res.Reconfigurations == 0 {
				t.Errorf("no reconfigurations happened")
			}
			if res.PooledLCTail(95) <= 0 {
				t.Errorf("pooled tail should be positive")
			}
		})
	}
}

func TestLRUCacheModeForLRUPolicy(t *testing.T) {
	// With the LRU policy the cache is typically built in ModeLRU; make sure a
	// Vantage cache with an LRU (no-op) policy also runs without starving
	// anyone (targets stay at their initial values).
	if testing.Short() {
		t.Skip("mix runs are slow")
	}
	t.Parallel()
	res := runSmallMix(t, policy.NewLRU(), cpu.OutOfOrder)
	if len(res.Apps) != 4 {
		t.Fatalf("expected 4 apps")
	}
}

func TestWeightedSpeedupHelper(t *testing.T) {
	r := Result{Apps: []AppResult{
		{Name: "lc", LatencyCritical: true, TailLatency: 10},
		{Name: "b1", IPC: 1.0},
		{Name: "b2", IPC: 2.0},
	}}
	ws, err := r.WeightedSpeedup([]float64{1.0, 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if ws != 1.5 {
		t.Errorf("weighted speedup = %v, want 1.5", ws)
	}
	if _, err := r.WeightedSpeedup([]float64{1.0}); err == nil {
		t.Errorf("mismatched baselines should error")
	}
}

// TestSchedulerQuantumDeterminism locks in the event scheduler's contract:
// for any fixed step quantum (including 0, the exact smallest-clock-first
// interleaving), repeated runs with the same seed are bit-identical, and
// every quantum produces a complete, self-consistent run.
func TestSchedulerQuantumDeterminism(t *testing.T) {
	lc := smallLC(t, "masstree")
	batch := smallBatch(t, "mcf")
	run := func(quantum uint64) Result {
		cfg := testConfig()
		cfg.StepQuantumCycles = quantum
		specs := []AppSpec{
			{LC: &lc, Load: 0.2, MeanInterarrival: 60_000, RequestFactor: 0.05},
			{Batch: &batch},
		}
		res, err := RunMix(cfg, specs, policy.NewStaticLC())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, quantum := range []uint64{0, 1024, 50_000} {
		a, b := run(quantum), run(quantum)
		if a.Cycles != b.Cycles {
			t.Errorf("quantum=%d: run length not reproducible: %d vs %d", quantum, a.Cycles, b.Cycles)
		}
		la, lb := a.LCResults(), b.LCResults()
		if len(la) != 1 || len(lb) != 1 {
			t.Fatalf("quantum=%d: expected 1 LC result", quantum)
		}
		if la[0].TailLatency != lb[0].TailLatency || la[0].MeanLatency != lb[0].MeanLatency {
			t.Errorf("quantum=%d: latencies not reproducible", quantum)
		}
		if la[0].Requests == 0 || la[0].TailLatency <= 0 {
			t.Errorf("quantum=%d: run incomplete: %+v", quantum, la[0])
		}
		if a.BatchResults()[0].IPC <= 0 {
			t.Errorf("quantum=%d: batch app did not run", quantum)
		}
	}
}

// TestBatchOnlySchedulerTermination pins the heap scheduler's batch-only
// termination rule: every batch app retires at least its region of interest,
// and apps that finish early keep contending until the last one is done.
func TestBatchOnlySchedulerTermination(t *testing.T) {
	cfg := testConfig()
	b1 := smallBatch(t, "mcf")
	b2 := smallBatch(t, "libquantum")
	short := b1
	short.ROIInstructions = 50_000
	res, err := RunMix(cfg, []AppSpec{{Batch: &short, ROIInstructions: 50_000}, {Batch: &b2, ROIInstructions: 400_000}}, policy.NewUCP())
	if err != nil {
		t.Fatal(err)
	}
	batch := res.BatchResults()
	if len(batch) != 2 {
		t.Fatalf("expected 2 batch results")
	}
	if batch[0].Instructions < 50_000 || batch[1].Instructions < 400_000 {
		t.Errorf("ROIs not retired: %d, %d", batch[0].Instructions, batch[1].Instructions)
	}
	// The short-ROI app must have kept running (contending) well past its own
	// region of interest while the long one finished.
	if batch[0].Instructions < 2*50_000 {
		t.Errorf("early-finishing batch app should keep executing until the run ends, retired only %d", batch[0].Instructions)
	}
}

func TestDeterministicRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("mix runs are slow")
	}
	t.Parallel()
	a := runSmallMix(t, policy.NewStaticLC(), cpu.OutOfOrder)
	b := runSmallMix(t, policy.NewStaticLC(), cpu.OutOfOrder)
	if a.Cycles != b.Cycles {
		t.Errorf("same seed should reproduce the same run length: %d vs %d", a.Cycles, b.Cycles)
	}
	la, lb := a.LCResults(), b.LCResults()
	for i := range la {
		if la[i].TailLatency != lb[i].TailLatency {
			t.Errorf("tail latency not reproducible for %s", la[i].Name)
		}
	}
}

func TestInOrderCoresSlower(t *testing.T) {
	if testing.Short() {
		t.Skip("mix runs are slow")
	}
	t.Parallel()
	ooo := runSmallMix(t, policy.NewStaticLC(), cpu.OutOfOrder)
	ino := runSmallMix(t, policy.NewStaticLC(), cpu.InOrder)
	// In-order cores expose full miss latency, so the same workload takes
	// longer (Figure 11's premise).
	if ino.LCResults()[0].MeanServiceTime <= ooo.LCResults()[0].MeanServiceTime {
		t.Errorf("in-order service times (%v) should exceed OOO (%v)",
			ino.LCResults()[0].MeanServiceTime, ooo.LCResults()[0].MeanServiceTime)
	}
}

func TestAlignLines(t *testing.T) {
	llc := cache.DefaultZ452(6144, 6)
	if got := alignLines(1024, llc); got != 1024 {
		t.Errorf("aligned 1024 -> %d, want 1024", got)
	}
	if got := alignLines(1001, llc); got != 1004 {
		t.Errorf("aligned 1001 -> %d, want 1004", got)
	}
	if got := alignLines(0, llc); got < 4 {
		t.Errorf("aligned 0 should still produce a usable cache, got %d", got)
	}
}

func TestHierarchyConfigRejected(t *testing.T) {
	bad := DefaultConfig()
	bad.Hierarchy.L1 = cache.LevelConfig{Lines: 10, Ways: 4} // not a multiple of ways
	if err := bad.Validate(); err == nil {
		t.Errorf("invalid L1 level should be rejected")
	}
	bad = DefaultConfig()
	bad.Hierarchy.L2.Lines = bad.LLC.Lines // private level as large as the LLC
	bad.Hierarchy.L2.Ways = 8
	if err := bad.Validate(); err == nil {
		t.Errorf("L2 at LLC size should be rejected")
	}
	bad = DefaultConfig()
	bad.Hierarchy.L2 = cache.LevelConfig{} // L1-only hierarchy...
	bad.Hierarchy.L1.Lines = bad.LLC.Lines // ...as large as the LLC
	if err := bad.Validate(); err == nil {
		t.Errorf("L1-only hierarchy at LLC size should be rejected")
	}
	bad = DefaultConfig()
	bad.Core.L1HitLatencyCycles = bad.Core.L2HitLatencyCycles + 1
	if err := bad.Validate(); err == nil {
		t.Errorf("inverted per-level core latencies should be rejected")
	}
}

// TestHierarchyFiltersMonitoredStream checks the tentpole property end to
// end: with private levels enabled, part of the access stream is served
// privately (cheaper and invisible to the LLC), so the LLC-side APKI drops
// and the per-app results report private hit fractions. The flat run of the
// same mix must report none.
func TestHierarchyFiltersMonitoredStream(t *testing.T) {
	run := func(hier cache.HierarchyConfig) Result {
		cfg := testConfig()
		cfg.Hierarchy = hier
		lc := smallLC(t, "masstree")
		batch := smallBatch(t, "mcf")
		specs := []AppSpec{
			{LC: &lc, Load: 0.2, MeanInterarrival: 60_000, RequestFactor: 0.05},
			{Batch: &batch},
		}
		res, err := RunMix(cfg, specs, policy.NewUCP())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	flat := run(cache.HierarchyConfig{})
	hier := run(cache.DefaultHierarchy())
	for i, a := range flat.Apps {
		if a.L1HitFraction != 0 || a.L2HitFraction != 0 {
			t.Errorf("flat run should have no private hits: %+v", a)
		}
		h := hier.Apps[i]
		if h.L1HitFraction <= 0 {
			t.Errorf("%s: hierarchy run should serve some accesses from L1", h.Name)
		}
		if h.APKI >= a.APKI {
			t.Errorf("%s: filtered LLC APKI (%v) should be below the unfiltered APKI (%v)",
				h.Name, h.APKI, a.APKI)
		}
		if h.IPC <= a.IPC {
			t.Errorf("%s: private-level hits should raise IPC: %v vs flat %v", h.Name, h.IPC, a.IPC)
		}
	}
	// Latency-critical service is faster with private levels (same requests,
	// cheaper accesses).
	if hier.LCResults()[0].MeanServiceTime >= flat.LCResults()[0].MeanServiceTime {
		t.Errorf("private levels should shorten service times: %v vs flat %v",
			hier.LCResults()[0].MeanServiceTime, flat.LCResults()[0].MeanServiceTime)
	}
	// And the hierarchy run is reproducible.
	again := run(cache.DefaultHierarchy())
	if again.Cycles != hier.Cycles || again.LCResults()[0].TailLatency != hier.LCResults()[0].TailLatency {
		t.Errorf("hierarchy runs with the same seed should be bit-identical")
	}
}

func TestUnstableLoadDetected(t *testing.T) {
	// An offered load near 100% with a hard MaxCycles cap should abort rather
	// than loop forever.
	cfg := testConfig()
	cfg.MaxCycles = 20_000_000
	lc := smallLC(t, "moses")
	spec := AppSpec{LC: &lc, Load: 0.9, MeanInterarrival: 1000, RequestFactor: 0.3}
	_, err := RunMix(isolationConfig(cfg, lc.TargetLines()), []AppSpec{spec}, policy.NewLRU())
	if err == nil {
		t.Skip("run finished within the cap; nothing to assert")
	}
}

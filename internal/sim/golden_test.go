package sim

import (
	"math"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/stats"
	"repro/internal/workload"
)

// resultDigest folds every numeric field of a Result into one FNV-1a hash, so
// a golden test can pin a run's full numeric output in a single constant.
// Floats are hashed by their IEEE-754 bit patterns: the digest detects any
// change, including ones far below display precision.
func resultDigest(res Result) uint64 { return windowedDigest(res, 0) }

// windowedDigest is resultDigest that also hashes each latency-critical
// app's per-window statistics, computed from its request record at the given
// window width (0 hashes none, so window-less digests keep the values
// captured before windowed statistics existed).
func windowedDigest(res Result, width uint64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime64
		}
	}
	mixF := func(v float64) { mix(math.Float64bits(v)) }
	mix(res.Cycles)
	mix(res.Reconfigurations)
	mixF(res.ForcedEvictionFraction)
	mix(uint64(len(res.Apps)))
	for _, a := range res.Apps {
		mix(a.Instructions)
		mix(a.Requests)
		mixF(a.IPC)
		mixF(a.MissRate)
		mixF(a.APKI)
		mixF(a.MeanLatency)
		mixF(a.TailLatency)
		mixF(a.MeanServiceTime)
		mixF(a.MeanPartitionTarget)
		for _, frac := range a.ReuseBreakdown {
			mixF(frac)
		}
		if width == 0 || !a.LatencyCritical {
			continue
		}
		for _, w := range stats.WindowStats(width, 95, a.Record()) {
			mix(w.Index)
			mix(w.Count)
			mixF(w.Mean)
			mixF(w.P95)
			mixF(w.P99)
			mixF(w.TailMean)
		}
	}
	return h
}

// runChecked is RunMix that also checks the finished run's servers against
// Lindley's recursion (checkServer).
func runChecked(t *testing.T, cfg Config, specs []AppSpec, pol policy.Policy) Result {
	t.Helper()
	s, err := New(cfg, specs, pol)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	checkServer(t, s)
	return res
}

// goldenRun executes the short fixed-seed mix the golden digests pin: one
// latency-critical app (fixed interarrival, so no calibration run is needed)
// plus one batch app under Ubik, exercising the cache, monitor, request
// record and policy layers end to end.
func goldenRun(t *testing.T, cfg Config) Result {
	t.Helper()
	cfg.Seed = 42
	lc, err := workload.LCByName("masstree")
	if err != nil {
		t.Fatal(err)
	}
	batch, err := workload.BatchByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	specs := []AppSpec{
		{LC: &lc, Load: 0.2, MeanInterarrival: 60_000, DeadlineCycles: 45_000, RequestFactor: 0.05},
		{Batch: &batch, ROIInstructions: 300_000},
	}
	return runChecked(t, cfg, specs, core.NewUbikWithSlack(0.05))
}

// TestGoldenDigestFlat pins the numeric output of a short fixed-seed run on
// the flat (no private levels) configuration. The pinned value was captured
// on the pre-hierarchy simulator, so this test is also the proof that
// disabling the private levels reproduces the old flat system bit-for-bit. A
// mismatch means a refactor changed simulation numerics; update the constant
// only when a PR intends a numeric change, and say so in its CHANGES.md entry.
func TestGoldenDigestFlat(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Hierarchy = cache.HierarchyConfig{}
	got := resultDigest(goldenRun(t, cfg))
	const want = uint64(0x576fdec701773e44) // pre-hierarchy flat simulator
	if got != want {
		t.Errorf("flat-config golden digest = %#x, want %#x (numerics changed; update only if intended)", got, want)
	}
}

// TestGoldenDigestHierarchy pins the same run on the default configuration
// with the Table 2 private levels enabled.
func TestGoldenDigestHierarchy(t *testing.T) {
	cfg := DefaultConfig()
	got := resultDigest(goldenRun(t, cfg))
	const want = uint64(0xdb4d74909e94b33f) // Table 2 private L1/L2 in front of the LLC
	if got != want {
		t.Errorf("hierarchy golden digest = %#x, want %#x (numerics changed; update only if intended)", got, want)
	}
}

// goldenBurstRun is the scenario-engine analogue of goldenRun: the same
// fixed-seed mix driven through a 4x load burst, exercising the schedule
// evaluator and the modulated arrival process end to end; the test windows
// its request record.
func goldenBurstRun(t *testing.T) Result {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Seed = 42
	lc, err := workload.LCByName("masstree")
	if err != nil {
		t.Fatal(err)
	}
	batch, err := workload.BatchByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	sched, err := workload.ParseSchedule("burst:at=5e5,dur=5e5,x=4")
	if err != nil {
		t.Fatal(err)
	}
	specs := []AppSpec{
		{LC: &lc, Load: 0.2, MeanInterarrival: 60_000, DeadlineCycles: 45_000, RequestFactor: 0.05, Sched: sched},
		{Batch: &batch, ROIInstructions: 300_000},
	}
	return runChecked(t, cfg, specs, core.NewUbikWithSlack(0.05))
}

// TestGoldenDigestBurstSchedule pins the scenario engine's numerics (arrival
// modulation plus windowed tails), so refactors cannot silently drift
// transient results. Update the constant only when a PR intends a numeric
// change, and say so in its CHANGES.md entry.
func TestGoldenDigestBurstSchedule(t *testing.T) {
	res := goldenBurstRun(t)
	lcs := res.LCResults()
	if len(lcs) != 1 || len(lcs[0].RequestArrivals) == 0 {
		t.Fatalf("burst golden run should record LC requests, got %+v", lcs)
	}
	got := windowedDigest(res, 200_000)
	const want = uint64(0x78997f0b3064a37c) // scenario engine: 4x burst + 200k-cycle windows
	if got != want {
		t.Errorf("burst-schedule golden digest = %#x, want %#x (transient numerics changed; update only if intended)", got, want)
	}
}

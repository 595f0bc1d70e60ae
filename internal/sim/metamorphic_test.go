package sim

import (
	"testing"

	"repro/internal/policy"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Metamorphic properties: relations between runs that must hold for any
// correct simulator, regardless of the exact numbers. They complement the
// golden digests (which pin values) by pinning *directions*.

// TestHigherLoadNeverLowersMeanLatency runs the same request sequence at
// increasing offered loads: arrivals compress (the same exponential draws
// scaled down), service demands stay identical, so queueing delay — and with
// it mean latency — must be nondecreasing in load.
func TestHigherLoadNeverLowersMeanLatency(t *testing.T) {
	cfg := testConfig()
	profile := smallLC(t, "specjbb")
	base, err := MeasureLCBaseline(cfg, profile, profile.TargetLines(), 0.2, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	var prevMean, prevTail float64
	for _, load := range []float64{0.2, 0.4, 0.6, 0.8} {
		interarrival, err := workload.MeanInterarrivalForLoad(base.MeanServiceCycles, load)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunIsolatedLC(cfg, profile, profile.TargetLines(), interarrival, 0.1, 1234)
		if err != nil {
			t.Fatal(err)
		}
		lc := res.LCResults()[0]
		if lc.MeanLatency < prevMean {
			t.Errorf("load %.1f: mean latency %v below previous load's %v", load, lc.MeanLatency, prevMean)
		}
		if lc.TailLatency < prevTail {
			t.Errorf("load %.1f: tail latency %v below previous load's %v", load, lc.TailLatency, prevTail)
		}
		prevMean, prevTail = lc.MeanLatency, lc.TailLatency
	}
}

// TestLargerLLCNeverRaisesIsolatedMissRate runs a cache-sensitive batch app
// alone on successively larger private LLCs: a bigger cache (same stream,
// same replacement discipline) must not miss more.
func TestLargerLLCNeverRaisesIsolatedMissRate(t *testing.T) {
	cfg := testConfig()
	b := smallBatch(t, "mcf")
	var prev float64 = 2 // above any possible rate
	for _, lines := range []uint64{256, 1024, 4096} {
		iso := isolationConfig(cfg, lines)
		spec := AppSpec{Batch: &b, ROIInstructions: 250_000, Seed: 99}
		res, err := RunMix(iso, []AppSpec{spec}, policy.NewLRU())
		if err != nil {
			t.Fatal(err)
		}
		mr := res.BatchResults()[0].MissRate
		if mr <= 0 || mr > 1 {
			t.Fatalf("%d lines: implausible miss rate %v", lines, mr)
		}
		if mr > prev {
			t.Errorf("%d lines: miss rate %v exceeds the smaller cache's %v", lines, mr, prev)
		}
		prev = mr
	}
}

// burstMixRun drives the shared scenario-path mix: one LC app on the given
// schedule, one batch app, under StaticLC.
func burstMixRun(t *testing.T, sched workload.ScheduleSpec, quantum uint64) Result {
	t.Helper()
	cfg := testConfig()
	cfg.StepQuantumCycles = quantum
	lc := smallLC(t, "masstree")
	batch := smallBatch(t, "mcf")
	specs := []AppSpec{
		{LC: &lc, Load: 0.2, MeanInterarrival: 60_000, RequestFactor: 0.05, Sched: sched},
		{Batch: &batch},
	}
	res, err := RunMix(cfg, specs, policy.NewStaticLC())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestScenarioPathDeterministic extends the determinism contract to the
// scenario engine: for every schedule kind and step quantum, repeated runs
// with the same seed produce bit-identical results — including the windowed
// statistics, which the digest covers.
func TestScenarioPathDeterministic(t *testing.T) {
	scheds := []string{
		"burst:at=5e5,dur=5e5,x=4",
		"ramp:at=2e5,dur=1e6,from=1,to=3",
		"diurnal:period=8e5,amp=0.5",
		"flash:at=5e5,x=6,decay=2e5",
		"mmpp:x=4,on=2e5,off=6e5",
	}
	for _, s := range scheds {
		sched, err := workload.ParseSchedule(s)
		if err != nil {
			t.Fatal(err)
		}
		for _, quantum := range []uint64{0, 1024} {
			a := burstMixRun(t, sched, quantum)
			b := burstMixRun(t, sched, quantum)
			da, db := windowedDigest(a, 200_000), windowedDigest(b, 200_000)
			if da != db {
				t.Errorf("%s quantum=%d: runs not bit-identical (%#x vs %#x)", s, quantum, da, db)
			}
			lc := a.LCResults()[0]
			if lc.Requests == 0 || len(lc.RequestArrivals) != int(lc.Requests) {
				t.Errorf("%s quantum=%d: incomplete scenario run: %d requests, %d recorded",
					s, quantum, lc.Requests, len(lc.RequestArrivals))
			}
			if lc.Schedule != sched.String() {
				t.Errorf("%s: result should carry the schedule, got %q", s, lc.Schedule)
			}
		}
	}
}

// TestUnitBurstMatchesConstant pins the compatibility edge of the scenario
// engine inside the full simulator: a burst with multiplier 1 is the
// constant schedule, so the whole run — every latency, window and cache
// event — must be bit-identical to a run with no schedule at all.
func TestUnitBurstMatchesConstant(t *testing.T) {
	unit := workload.ScheduleSpec{Kind: workload.SchedBurst, AtCycle: 100_000, DurationCycles: 500_000, Mult: 1}
	if err := unit.Validate(); err != nil {
		t.Fatal(err)
	}
	a := burstMixRun(t, unit, 1024)
	b := burstMixRun(t, workload.ScheduleSpec{}, 1024)
	// The schedule strings differ by design; everything numeric must match.
	if da, db := windowedDigest(a, 200_000), windowedDigest(b, 200_000); da != db {
		t.Errorf("multiplier-1 burst differs from constant schedule: %#x vs %#x", da, db)
	}
}

// TestBurstRaisesInWindowArrivals checks that the machinery measures what it
// claims: the burst's windows record substantially more measured arrivals
// than an equally long post-burst steady phase (warmup requests, which are
// excluded from recording, are all served before the burst ends).
func TestBurstRaisesInWindowArrivals(t *testing.T) {
	sched, err := workload.ParseSchedule("burst:at=4e5,dur=4e5,x=5")
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	lc := smallLC(t, "masstree")
	batch := smallBatch(t, "mcf")
	specs := []AppSpec{
		{LC: &lc, Load: 0.2, MeanInterarrival: 60_000, RequestFactor: 0.2, Sched: sched},
		{Batch: &batch},
	}
	res, err := RunMix(cfg, specs, policy.NewStaticLC())
	if err != nil {
		t.Fatal(err)
	}
	windows := stats.WindowStats(100_000, 95, res.LCResults()[0].Record())
	const winPerPhase = 4 // 4e5 cycles per phase / 1e5-cycle windows
	if len(windows) < 4*winPerPhase {
		t.Fatalf("run too short to cover burst and recovery: %d windows", len(windows))
	}
	var burstN, postN uint64
	for _, w := range windows[winPerPhase : 2*winPerPhase] { // [4e5, 8e5): the burst
		burstN += w.Count
	}
	for _, w := range windows[3*winPerPhase : 4*winPerPhase] { // [1.2e6, 1.6e6): steady again
		postN += w.Count
	}
	if burstN <= 2*postN {
		t.Errorf("a 5x burst should concentrate arrivals: burst windows %d vs post-burst %d", burstN, postN)
	}
}

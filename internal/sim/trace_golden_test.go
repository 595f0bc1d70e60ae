package sim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/tracein"
	"repro/internal/workload"
)

// goldenTraceStream derives the fixed trace the replay golden digest pins: a
// phase-change pattern (the access shape synthetic streams cannot produce)
// generated in memory, so the test needs no fixture files. Column 1 of the
// two-app trace drives mix slot 1, keeping the replayed addresses in the
// batch slot's own address slab.
func goldenTraceStream(t *testing.T) *workload.TraceStream {
	t.Helper()
	tr, err := tracein.GenerateTrace(tracein.GenSpec{
		Kind: tracein.KindMem, Gen: tracein.GenPhase,
		Records: 60_000, Apps: 2, Keys: 8192, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts, err := tr.MemStream(1)
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

// goldenTraceSpecs is the goldenRun mix with the batch slot's synthetic
// address stream replaced by the replayed trace.
func goldenTraceSpecs(t *testing.T, ts *workload.TraceStream) []AppSpec {
	t.Helper()
	lc, err := workload.LCByName("masstree")
	if err != nil {
		t.Fatal(err)
	}
	batch, err := workload.BatchByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	return []AppSpec{
		{LC: &lc, Load: 0.2, MeanInterarrival: 60_000, DeadlineCycles: 45_000, RequestFactor: 0.05},
		{Batch: &batch, ROIInstructions: 300_000, Trace: ts},
	}
}

// goldenTraceDigest pins the numeric output of the replayed-trace golden run.
// Update the constant only when a PR intends a numeric change, and say so in
// its CHANGES.md entry.
const goldenTraceDigest = uint64(0x2111b69eaddd35eb)

// TestGoldenDigestTraceReplay pins one replayed-trace run and proves the
// replay path's determinism contract: the same loaded trace template seeds
// two runs that are bit-identical — the spec's stream is cloned per run,
// never advanced.
func TestGoldenDigestTraceReplay(t *testing.T) {
	ts := goldenTraceStream(t)
	for run := 0; run < 2; run++ {
		cfg := DefaultConfig()
		cfg.Seed = 42
		res, err := RunMix(cfg, goldenTraceSpecs(t, ts), core.NewUbikWithSlack(0.05))
		if err != nil {
			t.Fatal(err)
		}
		if got := resultDigest(res); got != goldenTraceDigest {
			t.Errorf("trace-replay golden digest on run %d: %#x, want %#x (numerics changed; update only if intended)",
				run, got, goldenTraceDigest)
		}
	}
}

// TestTraceReplayPauseResumeMatchesStraightRun proves trace-backed runs keep
// the pause contract: a run paused at a RunUntil boundary and resumed
// reproduces the straight run's golden digest bit for bit — the replay
// cursor is the stream's only mutable state and it never rewinds.
func TestTraceReplayPauseResumeMatchesStraightRun(t *testing.T) {
	ts := goldenTraceStream(t)
	cfg := DefaultConfig()
	cfg.Seed = 42
	s, err := New(cfg, goldenTraceSpecs(t, ts), core.NewUbikWithSlack(0.05))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntil(500_000); err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := resultDigest(res); got != goldenTraceDigest {
		t.Errorf("trace-backed paused-and-resumed digest = %#x, want the straight-run golden %#x", got, goldenTraceDigest)
	}
}

// TestTraceReplayUnderProvisionedArrivalsRejected pins the boundary of an
// explicit arrival record at the sim boundary: the times are the run's
// requests, so a record whose warm-up leaves nothing to measure is rejected
// at construction, and exactly one measured time is accepted.
func TestTraceReplayUnderProvisionedArrivalsRejected(t *testing.T) {
	lc, err := workload.LCByName("masstree")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Seed = 42
	for _, warmup := range []int{3, 4} {
		specs := []AppSpec{{LC: &lc, ArrivalTimes: []uint64{100, 200, 300}, ExplicitWarmup: warmup}}
		if _, err := RunMix(cfg, specs, core.NewUbikWithSlack(0.05)); err == nil {
			t.Fatalf("%d warm-up of 3 arrival times accepted", warmup)
		}
	}
	specs := []AppSpec{{LC: &lc, ArrivalTimes: []uint64{100, 200, 300, 400}, ExplicitWarmup: 3}}
	res, err := RunMix(cfg, specs, core.NewUbikWithSlack(0.05))
	if err != nil {
		t.Fatalf("one measured arrival time rejected: %v", err)
	}
	if got := res.Apps[0].Requests; got != 1 {
		t.Fatalf("%d measured requests, want 1", got)
	}
}

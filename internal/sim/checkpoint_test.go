package sim

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/workload"
)

// goldenSpecs returns the fixed-seed mix the golden digests pin (one
// latency-critical masstree instance plus one mcf batch app), optionally with
// a load schedule on the LC slot.
func goldenSpecs(t testing.TB, sched workload.ScheduleSpec) []AppSpec {
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
		{LC: &lc, Load: 0.2, MeanInterarrival: 60_000, DeadlineCycles: 45_000, RequestFactor: 0.05, Sched: sched},
		{Batch: &batch, ROIInstructions: 300_000},
	}
}

// TestPauseResumeMatchesStraightRun proves the pause primitive is invisible:
// a run interrupted at several RunUntil boundaries and resumed retraces the
// uninterrupted trajectory bit for bit — including the hierarchy golden
// digest, so this also pins the checkpoint engine against the pre-existing
// constants.
func TestPauseResumeMatchesStraightRun(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 42
	specs := goldenSpecs(t, workload.ScheduleSpec{})

	s, err := New(cfg, specs, core.NewUbikWithSlack(0.05))
	if err != nil {
		t.Fatal(err)
	}
	for _, stop := range []uint64{100_000, 400_000, 900_000} {
		if err := s.RunUntil(stop); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	const wantHierarchy = uint64(0xdb4d74909e94b33f) // TestGoldenDigestHierarchy's constant
	if got := resultDigest(res); got != wantHierarchy {
		t.Errorf("paused-and-resumed run digest = %#x, want the golden %#x", got, wantHierarchy)
	}
}

// TestCheckpointForkMatchesStraightRun proves forking is invisible: runs
// forked from a mid-run checkpoint reproduce the uninterrupted run exactly,
// for both the flat and hierarchy golden configurations, and a checkpoint can
// be forked repeatedly.
func TestCheckpointForkMatchesStraightRun(t *testing.T) {
	for _, tc := range []struct {
		name string
		flat bool
		want uint64 // the pre-existing golden digest constants
	}{
		{"hierarchy", false, 0xdb4d74909e94b33f},
		{"flat", true, 0x576fdec701773e44},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Seed = 42
			if tc.flat {
				cfg.Hierarchy = HierarchyForKB(0, 0, false)
			}
			specs := goldenSpecs(t, workload.ScheduleSpec{})
			cp, err := WarmCheckpoint(cfg, specs, core.NewUbikWithSlack(0.05), 500_000)
			if err != nil {
				t.Fatal(err)
			}
			for fork := 0; fork < 2; fork++ {
				res, err := RunFromCheckpoint(cp)
				if err != nil {
					t.Fatal(err)
				}
				if got := resultDigest(res); got != tc.want {
					t.Errorf("fork %d digest = %#x, want the golden %#x", fork, got, tc.want)
				}
			}
		})
	}
}

// TestForkMutationIsolation proves a forked run never aliases parent state:
// two forks of one checkpoint run concurrently (the race detector patrols
// shared mutable state), and a third fork run afterwards still reproduces the
// uninterrupted run, which it could not if the earlier runs had scribbled on
// the checkpoint.
func TestForkMutationIsolation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 42
	specs := goldenSpecs(t, workload.ScheduleSpec{})
	pol := core.NewUbikWithSlack(0.05)

	straight, err := RunMix(cfg, specs, pol.Clone())
	if err != nil {
		t.Fatal(err)
	}
	want := resultDigest(straight)

	cp, err := WarmCheckpoint(cfg, specs, pol, 500_000)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	digests := make([]uint64, 2)
	errs := make([]error, 2)
	for i := range digests {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := RunFromCheckpoint(cp)
			if err != nil {
				errs[i] = err
				return
			}
			digests[i] = resultDigest(res)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent fork %d: %v", i, err)
		}
		if digests[i] != want {
			t.Errorf("concurrent fork %d digest = %#x, want %#x", i, digests[i], want)
		}
	}
	res, err := RunFromCheckpoint(cp)
	if err != nil {
		t.Fatal(err)
	}
	if got := resultDigest(res); got != want {
		t.Errorf("post-run fork digest = %#x, want %#x (earlier forks mutated the checkpoint)", got, want)
	}
}

// TestWarmPoolMemoizesAndIsolates: one key computes once, hits return deep
// copies (sorting one consumer's sample must not reorder another's), and a
// nil pool stays a pass-through.
func TestWarmPoolMemoizesAndIsolates(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 42
	lc, err := workload.LCByName("masstree")
	if err != nil {
		t.Fatal(err)
	}
	pool := NewWarmPool()
	computes := 0
	get := func() Result {
		res, err := pool.Result("k", func() (Result, error) {
			computes++
			return RunMix(cfg, goldenSpecs(t, workload.ScheduleSpec{}), policy.NewLRU())
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := get(), get()
	if computes != 1 {
		t.Fatalf("computed %d times, want 1", computes)
	}
	if resultDigest(a) != resultDigest(b) {
		t.Fatal("pool hit returned a different result")
	}
	// Mutate a's sample; b must be unaffected.
	lcs := a.LCResults()
	if len(lcs) == 0 || lcs[0].Latencies == nil {
		t.Fatalf("unexpected result shape for %s", lc.Name)
	}
	lcs[0].Latencies.Add(1e18)
	if resultDigest(get()) != resultDigest(b) {
		t.Fatal("mutating a pooled result leaked into the pool")
	}
	var nilPool *WarmPool
	if _, err := nilPool.Result("k", func() (Result, error) { return Result{}, nil }); err != nil {
		t.Fatalf("nil pool: %v", err)
	}
}

// FuzzCheckpointRoundTrip fuzzes the checkpoint engine end to end: for an
// arbitrary seed, warm boundary, scheduler quantum and burst magnitude,
// (1) a run forked from a checkpoint matches the straight run (fork
// transparency), and (2) a checkpoint of a fork of a checkpoint — taken at
// the same boundary, with nothing run in between — forks to the same result
// (Snapshot→Restore→Snapshot is a fixed point).
func FuzzCheckpointRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint64(200_000), uint64(1024), 2.0)
	f.Add(uint64(42), uint64(0), uint64(0), 1.0)
	f.Add(uint64(7), uint64(5_000_000), uint64(64), 6.0)
	f.Fuzz(func(t *testing.T, seed, warmCycle, quantum uint64, mult float64) {
		cfg := DefaultConfig()
		cfg.Seed = seed%1024 + 1
		cfg.StepQuantumCycles = quantum % 65536
		warmCycle %= 4_000_000
		var sched workload.ScheduleSpec
		if mult >= 1.001 && mult <= 100 {
			sched = workload.ScheduleSpec{Kind: workload.SchedBurst, AtCycle: 600_000, DurationCycles: 400_000, Mult: mult}
		}
		specs := goldenSpecs(t, sched)

		straight, err := RunMix(cfg, specs, core.NewUbikWithSlack(0.05))
		if err != nil {
			t.Skip() // unstable configuration; nothing to round-trip
		}
		want := resultDigest(straight)

		cp, err := WarmCheckpoint(cfg, specs, core.NewUbikWithSlack(0.05), warmCycle)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunFromCheckpoint(cp)
		if err != nil {
			t.Fatal(err)
		}
		if got := resultDigest(res); got != want {
			t.Fatalf("forked digest %#x != straight digest %#x (seed=%d warm=%d quantum=%d)", got, want, cfg.Seed, warmCycle, cfg.StepQuantumCycles)
		}

		// Fixed point: re-checkpoint a fork without running it further.
		fork, err := cp.fork()
		if err != nil {
			t.Fatal(err)
		}
		cp2, err := fork.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		res2, err := RunFromCheckpoint(cp2)
		if err != nil {
			t.Fatal(err)
		}
		if got := resultDigest(res2); got != want {
			t.Fatalf("double-checkpoint digest %#x != straight digest %#x", got, want)
		}
	})
}

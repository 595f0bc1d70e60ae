package sim

import (
	"slices"
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
// digest, so this also pins the pause primitive against the pre-existing
// constants. It is the contract the deprecated Checkpoint shim's re-run
// leans on.
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

// TestCheckpointReRunsToTheStraightResult pins the deprecated checkpoint
// shim: a checkpoint taken mid-run re-runs to the uninterrupted run's golden
// digest, for both the flat and hierarchy configurations and on every call.
// It also pins the two states the shim refuses to record: a cold-restarted
// simulator and a slot replaying explicit arrivals.
func TestCheckpointReRunsToTheStraightResult(t *testing.T) {
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
			s, err := New(cfg, goldenSpecs(t, workload.ScheduleSpec{}), core.NewUbikWithSlack(0.05))
			if err != nil {
				t.Fatal(err)
			}
			if err := s.RunUntil(500_000); err != nil {
				t.Fatal(err)
			}
			cp, err := s.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			for run := 0; run < 2; run++ {
				res, err := RunFromCheckpoint(cp)
				if err != nil {
					t.Fatal(err)
				}
				if got := resultDigest(res); got != tc.want {
					t.Errorf("re-run %d digest = %#x, want the golden %#x", run, got, tc.want)
				}
			}
			if err := s.ColdRestart(policy.NewLRU()); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Checkpoint(); err == nil {
				t.Error("Checkpoint after ColdRestart accepted")
			}
		})
	}

	t.Run("explicit arrivals", func(t *testing.T) {
		lc, err := workload.LCByName("masstree")
		if err != nil {
			t.Fatal(err)
		}
		specs := []AppSpec{{
			LC:               &lc,
			Arrivals:         workload.NewReplayArrivals([]uint64{100, 200, 300, 400}),
			ExplicitRequests: 3,
			ExplicitWarmup:   1,
		}}
		s, err := New(DefaultConfig(), specs, core.NewUbikWithSlack(0.05))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Checkpoint(); err == nil {
			t.Error("Checkpoint of a slot with explicit arrivals accepted")
		}
	})
}

// TestWarmPoolMemoizesAndIsolates: concurrent lookups of one key compute
// once and all get that one Result, not copies; and because a finished run
// is read-only, readers querying it from several goroutines at once (CDF,
// TailMean, Values, per-window Percentile) agree with an unshared run and
// never write to it, which the race detector checks. A nil pool stays a
// pass-through.
func TestWarmPoolMemoizesAndIsolates(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 42
	cfg.LatencyWindowCycles = 200_000
	specs := goldenSpecs(t, workload.ScheduleSpec{})
	want, err := RunMix(cfg, specs, policy.NewLRU())
	if err != nil {
		t.Fatal(err)
	}
	wantReadout := readout(t, want)

	pool := NewWarmPool()
	computes := 0
	const readers = 4
	got := make([]Result, readers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := pool.Result("k", func() (Result, error) {
				computes++
				return RunMix(cfg, specs, policy.NewLRU())
			})
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = res
			if !slices.Equal(readout(t, res), wantReadout) {
				t.Errorf("reader %d: pooled result reads differently from an unshared run", i)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if computes != 1 {
		t.Fatalf("computed %d times, want 1", computes)
	}
	for i, res := range got {
		if res.Apps[0].Latencies != got[0].Apps[0].Latencies || &res.Apps[0] != &got[0].Apps[0] {
			t.Errorf("reader %d got a copy, not the pooled result", i)
		}
	}
	var nilPool *WarmPool
	if _, err := nilPool.Result("k", func() (Result, error) { return Result{}, nil }); err != nil {
		t.Fatalf("nil pool: %v", err)
	}
}

// readout queries every latency-critical sample of res the way report code
// does and returns what it read.
func readout(t *testing.T, res Result) []float64 {
	var out []float64
	for _, a := range res.LCResults() {
		cdf, err := a.ServiceTimes.CDF(50)
		if err != nil {
			t.Error(err)
			return nil
		}
		for _, p := range cdf {
			out = append(out, p.Value, p.Fraction)
		}
		tm, err := a.Latencies.TailMean(95)
		if err != nil {
			t.Error(err)
			return nil
		}
		out = append(out, tm)
		out = append(out, a.Latencies.Values()...)
		if len(a.WindowSamples) < 2 {
			t.Errorf("want several latency windows, got %d", len(a.WindowSamples))
		}
		for _, w := range a.WindowSamples {
			if w != nil {
				out = append(out, w.PercentileOrZero(99))
			}
		}
	}
	return out
}

// FuzzPauseResume fuzzes the pause contract end to end: for an arbitrary
// seed, pause boundary, scheduler quantum and burst magnitude, a run paused
// by RunUntil and finished by Run matches the straight run's digest.
func FuzzPauseResume(f *testing.F) {
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
			t.Skip() // unstable configuration; nothing to compare
		}
		want := resultDigest(straight)

		s, err := New(cfg, specs, core.NewUbikWithSlack(0.05))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.RunUntil(warmCycle); err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		if got := resultDigest(res); got != want {
			t.Fatalf("paused-and-resumed digest %#x != straight digest %#x (seed=%d pause=%d quantum=%d)", got, want, cfg.Seed, warmCycle, cfg.StepQuantumCycles)
		}
	})
}

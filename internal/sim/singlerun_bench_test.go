package sim

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/workload"
)

// largeRunSetup builds the big-LLC four-app mix the single-run speed work is
// measured against: two latency-critical apps at realistic request factors
// plus two long batch apps on a 16384-line LLC. The same mix backs both
// benchmarks so the checkpoint numbers are taken from a warmed large state,
// not a toy one.
func largeRunSetup(tb testing.TB) (Config, []AppSpec) {
	cfg := DefaultConfig()
	cfg.Seed = 7
	cfg.LLC = cache.DefaultZ452(16*LinesFor2MB, 4) // 16384 lines, 4-way z-cache
	lc1, err := workload.LCByName("masstree")
	if err != nil {
		tb.Fatal(err)
	}
	lc2, err := workload.LCByName("xapian")
	if err != nil {
		tb.Fatal(err)
	}
	b1, err := workload.BatchByName("mcf")
	if err != nil {
		tb.Fatal(err)
	}
	b2, err := workload.BatchByName("omnetpp")
	if err != nil {
		tb.Fatal(err)
	}
	specs := []AppSpec{
		{LC: &lc1, Load: 0.3, MeanInterarrival: 60_000, DeadlineCycles: 45_000, RequestFactor: 0.4},
		{LC: &lc2, Load: 0.3, MeanInterarrival: 70_000, DeadlineCycles: 50_000, RequestFactor: 0.4},
		{Batch: &b1, ROIInstructions: 3_000_000},
		{Batch: &b2, ROIInstructions: 3_000_000},
	}
	return cfg, specs
}

// BenchmarkSingleLargeRun measures one full end-to-end simulation of the
// large mix.
func BenchmarkSingleLargeRun(b *testing.B) {
	b.Run("serial", func(b *testing.B) {
		cfg, specs := largeRunSetup(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := RunMix(cfg, specs, core.NewUbikWithSlack(0.05)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCheckpointClone measures checkpointing a warmed large-run state:
// Checkpoint seals the arena-backed LLC and copies only dirty chunks.
func BenchmarkCheckpointClone(b *testing.B) {
	b.Run("delta", func(b *testing.B) {
		cfg, specs := largeRunSetup(b)
		s, err := New(cfg, specs, core.NewUbikWithSlack(0.05))
		if err != nil {
			b.Fatal(err)
		}
		if err := s.RunUntil(2_000_000); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Checkpoint(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

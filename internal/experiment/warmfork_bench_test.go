package experiment

import (
	"testing"

	"repro/internal/sim"
)

// BenchmarkWarmForkSweep times the fig7-style five-scheme sweep the warm-fork
// engine exists for: the five standard schemes driven through a flash-crowd
// magnitude sweep whose spike hits late in the run, so the shared quiescent
// warmup prefix dominates. Each scheme warms once to the spike onset and every
// magnitude forks from the snapshot (DESIGN.md §10 records what re-warming
// every cell cost before that path was deleted). Parallelism is pinned to 1
// so the number measures work done, not scheduling luck.
func BenchmarkWarmForkSweep(b *testing.B) {
	cfg := sim.DefaultConfig()
	cfg.Seed = 5
	scale := Scale{RequestFactor: 0.05, MixesPerLC: 1, BatchROI: 120_000, LoadPoints: 3, Seed: 5, Parallelism: 1}
	for i := 0; i < b.N; i++ {
		if _, err := FlashRecoveryAt(cfg, scale, 22, []float64{2, 3, 4, 6, 8}); err != nil {
			b.Fatal(err)
		}
	}
}

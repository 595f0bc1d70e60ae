package sim

import (
	"fmt"

	"repro/internal/stats"
)

// AppResult summarises one application's behaviour over a run's measured
// window.
type AppResult struct {
	// Name is the application's profile name.
	Name string
	// LatencyCritical marks latency-critical slots.
	LatencyCritical bool

	// Latency-critical metrics (cycles).
	MeanLatency     float64
	TailLatency     float64
	MeanServiceTime float64
	Requests        uint64
	// Latencies and ServiceTimes carry the raw samples for CDFs and custom
	// percentiles.
	Latencies    *stats.Sample
	ServiceTimes *stats.Sample
	// RequestLatencies holds the measured latencies in request-ID (arrival)
	// order — unlike the Latencies sample, whose backing array percentile
	// queries sort in place. The cluster aggregator joins a node's i-th leaf
	// request back to its query through this slice. Only populated for slots
	// with an explicit arrival stream (cluster leaves); nil otherwise.
	// Read-only.
	RequestLatencies []float64
	// ReuseBreakdown is the Figure 2 classification: hit fractions by
	// requests-since-last-touch, then the miss fraction.
	ReuseBreakdown []float64
	// OfferedLoad is the configured load for latency-critical apps.
	OfferedLoad float64
	// Schedule is the app's load schedule in flag syntax ("const" when
	// steady).
	Schedule string
	// Windows holds per-arrival-window latency statistics when
	// Config.LatencyWindowCycles is set (nil otherwise): the per-phase
	// p95/p99 view of a time-varying run.
	Windows []stats.WindowStat
	// WindowSamples carries the raw per-window latency samples backing
	// Windows (index-aligned, nil entries for empty windows), so phases can
	// be pooled exactly across windows and instances. Read-only.
	WindowSamples []*stats.Sample

	// Batch (and general) metrics. With private levels enabled, MissRate and
	// APKI describe the L2-filtered stream the shared LLC observes.
	IPC          float64
	Instructions uint64
	MissRate     float64
	APKI         float64

	// Private-hierarchy metrics: the fraction of demand accesses served by
	// the app's private L1 and L2 levels (both 0 on a flat configuration).
	L1HitFraction float64
	L2HitFraction float64

	// MeanPartitionTarget is the time-averaged partition target in lines,
	// sampled at reconfigurations (diagnostic).
	MeanPartitionTarget float64
}

// Result is the outcome of one simulation run.
type Result struct {
	// Policy is the name of the management policy used.
	Policy string
	// Apps holds one result per application slot.
	Apps []AppResult
	// Cycles is the (maximum app-local) duration of the run.
	Cycles uint64
	// Reconfigurations counts policy Reconfigure invocations.
	Reconfigurations uint64
	// ForcedEvictionFraction is the fraction of evictions that had to
	// victimise an at-or-under-target partition (a health metric for the
	// partitioning scheme).
	ForcedEvictionFraction float64
}

// Clone returns a deep copy of the result: samples, window series and
// latency slices are all duplicated. Warm-pool hits hand each consumer a
// clone so one consumer's in-place percentile sorting (or pooling) cannot
// race another's.
func (r Result) Clone() Result {
	c := r
	c.Apps = make([]AppResult, len(r.Apps))
	for i, a := range r.Apps {
		ca := a
		if a.Latencies != nil {
			ca.Latencies = a.Latencies.Clone()
		}
		if a.ServiceTimes != nil {
			ca.ServiceTimes = a.ServiceTimes.Clone()
		}
		ca.RequestLatencies = append([]float64(nil), a.RequestLatencies...)
		ca.ReuseBreakdown = append([]float64(nil), a.ReuseBreakdown...)
		ca.Windows = append([]stats.WindowStat(nil), a.Windows...)
		if a.WindowSamples != nil {
			ca.WindowSamples = make([]*stats.Sample, len(a.WindowSamples))
			for j, s := range a.WindowSamples {
				if s != nil {
					ca.WindowSamples[j] = s.Clone()
				}
			}
		}
		c.Apps[i] = ca
	}
	return c
}

// LCResults returns the latency-critical app results.
func (r Result) LCResults() []AppResult {
	var out []AppResult
	for _, a := range r.Apps {
		if a.LatencyCritical {
			out = append(out, a)
		}
	}
	return out
}

// BatchResults returns the batch app results.
func (r Result) BatchResults() []AppResult {
	var out []AppResult
	for _, a := range r.Apps {
		if !a.LatencyCritical {
			out = append(out, a)
		}
	}
	return out
}

// WeightedSpeedup computes the batch weighted speedup of this run against
// per-slot baseline IPCs (the apps' isolated IPCs on a private LLC), matching
// the paper's metric. baselines must be keyed like BatchResults.
func (r Result) WeightedSpeedup(baselines []float64) (float64, error) {
	batch := r.BatchResults()
	if len(batch) != len(baselines) {
		return 0, fmt.Errorf("sim: %d batch results but %d baselines", len(batch), len(baselines))
	}
	ipcs := make([]float64, len(batch))
	for i, b := range batch {
		ipcs[i] = b.IPC
	}
	return stats.WeightedSpeedup(ipcs, baselines)
}

// PooledLCTail returns the tail latency across all latency-critical requests
// from all app instances pooled together (the statistic the paper plots per
// mix: "the 95th percentile tail latency across all three app instances").
func (r Result) PooledLCTail(percentile float64) float64 {
	pooled := stats.NewSample(1024)
	for _, a := range r.LCResults() {
		if a.Latencies != nil {
			pooled.AddAll(a.Latencies.Values())
		}
	}
	v, err := pooled.TailMean(percentile)
	if err != nil {
		return 0
	}
	return v
}

package sim

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/policy"
	"repro/internal/workload"
)

// LCBaseline holds the isolation characteristics of a latency-critical
// application running alone on a private LLC of its target size — the
// reference every scheme is compared against (Section 6: tail latency
// degradation is normalised to "the same instances running in isolation") and
// the source of each app's deadline and calibrated arrival rate.
type LCBaseline struct {
	// Profile is the application.
	Profile workload.LCProfile
	// TargetLines is the private-LLC size used.
	TargetLines uint64
	// Load is the offered load the baseline was measured at.
	Load float64
	// MeanServiceCycles is the mean request service time with a warm cache.
	MeanServiceCycles float64
	// MeanInterarrival is the arrival spacing that produces Load.
	MeanInterarrival float64
	// MeanLatency and TailLatency are the isolated latency metrics at Load.
	MeanLatency float64
	TailLatency float64
}

// isolationConfig returns a single-core configuration with a private LLC of
// the given size (kept on the same array organisation as cfg).
func isolationConfig(cfg Config, lines uint64) Config {
	iso := cfg
	llc := cfg.LLC
	llc.Lines = alignLines(lines, llc)
	llc.Partitions = 1
	llc.Mode = cache.ModeLRU
	iso.LLC = llc
	// Isolation and calibration runs are steady-state by construction (the
	// baseline a time-varying mix is compared against), so windowed latency
	// recording stays off even when the mix configuration enables it —
	// calibration's enormous interarrival gaps would otherwise spread a
	// handful of requests over millions of windows.
	iso.LatencyWindowCycles = 0
	return iso
}

// alignLines rounds a line count up to a multiple of the array's ways so the
// array constructor accepts it.
func alignLines(lines uint64, llc cache.ArrayConfig) uint64 {
	ways := uint64(llc.Ways)
	if ways == 0 {
		ways = 1
	}
	if lines == 0 {
		return ways
	}
	if rem := lines % ways; rem != 0 {
		lines += ways - rem
	}
	return lines
}

// isolationKey builds the warm-pool identity of an isolation-family run: the
// full isolated machine configuration (every Config field is a plain value,
// so %#v captures it exactly), the complete application profile, and the
// run parameters. Two isolation runs with equal keys are the same
// deterministic computation. Wall-clock-only knobs are cleared first
// (Config.PoolIdentity) so runs that differ only in parallelism share an
// entry.
func isolationKey(kind string, iso Config, profile workload.LCProfile, args ...any) string {
	return fmt.Sprintf("%s|%#v|%#v|%v", kind, iso.PoolIdentity(), profile, args)
}

// CalibrateServicePooled measures an application's mean request service time
// when it runs alone with a warm private LLC of targetLines lines, using
// widely spaced arrivals so queueing never occurs. The run is memoized through
// the warm pool: it does not depend on the offered load, so a load sweep that
// calibrates per point pays for it once. A nil pool disables reuse.
func CalibrateServicePooled(pool *WarmPool, cfg Config, profile workload.LCProfile, targetLines uint64, requestFactor float64) (float64, error) {
	iso := isolationConfig(cfg, targetLines)
	spec := AppSpec{
		LC:               &profile,
		MeanInterarrival: 1, // irrelevant: overridden below by huge spacing
		RequestFactor:    requestFactor,
		TargetLines:      targetLines,
		Seed:             workload.SplitSeed(cfg.Seed, 0xCA11),
	}
	// Use an enormous interarrival so each request finds an idle server: the
	// measured latency is then pure service time.
	spec.MeanInterarrival = 1e12
	res, err := pool.Result(isolationKey("calib", iso, profile, targetLines, requestFactor), func() (Result, error) {
		return RunMix(iso, []AppSpec{spec}, policy.NewLRU())
	})
	if err != nil {
		return 0, err
	}
	lc := res.LCResults()
	if len(lc) != 1 || lc[0].Requests == 0 {
		return 0, fmt.Errorf("sim: calibration produced no measured requests for %s", profile.Name)
	}
	return lc[0].MeanServiceTime, nil
}

// RunIsolatedLC runs one latency-critical application alone on a private LLC
// of targetLines lines at the given arrival spacing, using exactly the random
// seed a mix instance would use, so its latencies are directly comparable to
// that instance's latencies in a mix (same requests, same arrival times).
func RunIsolatedLC(cfg Config, profile workload.LCProfile, targetLines uint64, meanInterarrival, requestFactor float64, seed uint64) (Result, error) {
	return RunIsolatedLCPooled(nil, cfg, profile, targetLines, meanInterarrival, requestFactor, seed)
}

// RunIsolatedLCPooled is RunIsolatedLC memoized through a warm pool, so
// experiments that need the same instance baseline (service CDFs, reuse
// breakdowns, pooled isolation tails) run it once. A nil pool disables reuse.
func RunIsolatedLCPooled(pool *WarmPool, cfg Config, profile workload.LCProfile, targetLines uint64, meanInterarrival, requestFactor float64, seed uint64) (Result, error) {
	if targetLines == 0 {
		targetLines = profile.TargetLines()
	}
	iso := isolationConfig(cfg, targetLines)
	spec := AppSpec{
		LC:               &profile,
		MeanInterarrival: meanInterarrival,
		RequestFactor:    requestFactor,
		TargetLines:      targetLines,
		Seed:             seed,
	}
	return pool.Result(isolationKey("iso", iso, profile, targetLines, meanInterarrival, requestFactor, seed), func() (Result, error) {
		return RunMix(iso, []AppSpec{spec}, policy.NewLRU())
	})
}

// MeasureLCBaseline runs an application alone on a private LLC of targetLines
// at the given load and returns its isolation characteristics. The mean
// service time is calibrated first so the arrival rate matches the requested
// load, mirroring the paper's methodology ("we run each app alone with a 2 MB
// LLC, and find the request rates that produce 20% and 60% loads").
func MeasureLCBaseline(cfg Config, profile workload.LCProfile, targetLines uint64, load, requestFactor float64) (LCBaseline, error) {
	return MeasureLCBaselinePooled(nil, cfg, profile, targetLines, load, requestFactor)
}

// MeasureLCBaselinePooled is MeasureLCBaseline with both of its runs (the
// load-independent service calibration and the per-load baseline) memoized
// through a warm pool. A nil pool disables reuse.
func MeasureLCBaselinePooled(pool *WarmPool, cfg Config, profile workload.LCProfile, targetLines uint64, load, requestFactor float64) (LCBaseline, error) {
	if targetLines == 0 {
		targetLines = profile.TargetLines()
	}
	meanService, err := CalibrateServicePooled(pool, cfg, profile, targetLines, requestFactor)
	if err != nil {
		return LCBaseline{}, err
	}
	interarrival, err := workload.MeanInterarrivalForLoad(meanService, load)
	if err != nil {
		return LCBaseline{}, err
	}
	iso := isolationConfig(cfg, targetLines)
	spec := AppSpec{
		LC:               &profile,
		Load:             load,
		MeanInterarrival: interarrival,
		RequestFactor:    requestFactor,
		TargetLines:      targetLines,
		Seed:             workload.SplitSeed(cfg.Seed, 0xBA5E),
	}
	res, err := pool.Result(isolationKey("base", iso, profile, targetLines, load, interarrival, requestFactor), func() (Result, error) {
		return RunMix(iso, []AppSpec{spec}, policy.NewLRU())
	})
	if err != nil {
		return LCBaseline{}, err
	}
	lc := res.LCResults()
	if len(lc) != 1 || lc[0].Requests == 0 {
		return LCBaseline{}, fmt.Errorf("sim: baseline run produced no measured requests for %s", profile.Name)
	}
	return LCBaseline{
		Profile:           profile,
		TargetLines:       targetLines,
		Load:              load,
		MeanServiceCycles: meanService,
		MeanInterarrival:  interarrival,
		MeanLatency:       lc[0].MeanLatency,
		TailLatency:       lc[0].TailLatency,
	}, nil
}

// MeasureBatchBaselineIPC runs a batch application alone on a private LLC of
// the given size and returns its IPC over its region of interest — the
// denominator of the weighted-speedup metric.
func MeasureBatchBaselineIPC(cfg Config, profile workload.BatchProfile, lines uint64, roiInstructions uint64) (float64, error) {
	return MeasureBatchBaselineIPCPooled(nil, cfg, profile, lines, roiInstructions)
}

// MeasureBatchBaselineIPCPooled is MeasureBatchBaselineIPC memoized through a
// warm pool. A nil pool disables reuse.
func MeasureBatchBaselineIPCPooled(pool *WarmPool, cfg Config, profile workload.BatchProfile, lines uint64, roiInstructions uint64) (float64, error) {
	iso := isolationConfig(cfg, lines)
	spec := AppSpec{
		Batch:           &profile,
		ROIInstructions: roiInstructions,
		Seed:            workload.SplitSeed(cfg.Seed, 0xBEEF),
	}
	res, err := pool.Result(fmt.Sprintf("batch|%#v|%#v|%d", iso.PoolIdentity(), profile, roiInstructions), func() (Result, error) {
		return RunMix(iso, []AppSpec{spec}, policy.NewLRU())
	})
	if err != nil {
		return 0, err
	}
	batch := res.BatchResults()
	if len(batch) != 1 {
		return 0, fmt.Errorf("sim: batch baseline run produced no results for %s", profile.Name)
	}
	if batch[0].IPC <= 0 {
		return 0, fmt.Errorf("sim: batch baseline IPC for %s is zero", profile.Name)
	}
	return batch[0].IPC, nil
}

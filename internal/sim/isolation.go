package sim

import (
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

// isolationJob runs spec alone under LRU on a private LLC of lines lines.
func isolationJob(cfg Config, lines uint64, spec AppSpec) Job {
	return Job{
		Config:    isolationConfig(cfg, lines),
		Specs:     []AppSpec{spec},
		NewPolicy: func() policy.Policy { return policy.NewLRU() },
		Key:       "lru",
	}
}

// lcJob runs profile alone on a private LLC of targetLines lines (0 = the
// profile's target) with spec's arrival spacing, request factor and seed.
func lcJob(cfg Config, profile workload.LCProfile, targetLines uint64, spec AppSpec) Job {
	if targetLines == 0 {
		targetLines = profile.TargetLines()
	}
	spec.LC, spec.TargetLines = &profile, targetLines
	return isolationJob(cfg, targetLines, spec)
}

// CalibrationJob measures an application's mean request service time
// (its one app's MeanServiceTime): alone on a warm private LLC of
// targetLines lines, under arrivals spaced so widely that every request finds
// an idle server. It does not depend on the load, so every load of a profile
// shares its key.
func CalibrationJob(cfg Config, profile workload.LCProfile, targetLines uint64, requestFactor float64) Job {
	return lcJob(cfg, profile, targetLines, AppSpec{MeanInterarrival: 1e12, RequestFactor: requestFactor,
		Seed: workload.SplitSeed(cfg.Seed, 0xCA11)})
}

// BaselineJob is an application's load baseline: alone at the arrival
// spacing that offers load (workload.MeanInterarrivalForLoad of the
// calibrated service time). Its tail latency is a mix instance's deadline.
func BaselineJob(cfg Config, profile workload.LCProfile, targetLines uint64, load, meanInterarrival, requestFactor float64) Job {
	return lcJob(cfg, profile, targetLines, AppSpec{Load: load, MeanInterarrival: meanInterarrival,
		RequestFactor: requestFactor, Seed: workload.SplitSeed(cfg.Seed, 0xBA5E)})
}

// IsolatedLCJob runs a latency-critical application alone on the random seed
// a mix instance uses, so its latencies are directly comparable to that
// instance's latencies in a mix (same requests, same arrival times).
func IsolatedLCJob(cfg Config, profile workload.LCProfile, targetLines uint64, meanInterarrival, requestFactor float64, seed uint64) Job {
	return lcJob(cfg, profile, targetLines, AppSpec{MeanInterarrival: meanInterarrival, RequestFactor: requestFactor, Seed: seed})
}

// BatchBaselineJob runs a batch application alone on a private LLC of lines
// lines over its region of interest: its IPC is the denominator of the
// weighted-speedup metric.
func BatchBaselineJob(cfg Config, profile workload.BatchProfile, lines uint64, roiInstructions uint64) Job {
	return isolationJob(cfg, lines, AppSpec{Batch: &profile, ROIInstructions: roiInstructions,
		Seed: workload.SplitSeed(cfg.Seed, 0xBEEF)})
}

// RunIsolatedLC runs IsolatedLCJob.
func RunIsolatedLC(cfg Config, profile workload.LCProfile, targetLines uint64, meanInterarrival, requestFactor float64, seed uint64) (Result, error) {
	return IsolatedLCJob(cfg, profile, targetLines, meanInterarrival, requestFactor, seed).run()
}

// MeasureLCBaseline returns an application's isolation characteristics at
// load: CalibrationJob, so the arrival rate matches the load, then
// BaselineJob — the paper's methodology ("we run each app alone with a 2 MB
// LLC, and find the request rates that produce 20% and 60% loads").
func MeasureLCBaseline(cfg Config, profile workload.LCProfile, targetLines uint64, load, requestFactor float64) (LCBaseline, error) {
	calib, err := CalibrationJob(cfg, profile, targetLines, requestFactor).run()
	if err != nil {
		return LCBaseline{}, err
	}
	b := LCBaseline{Profile: profile, Load: load, MeanServiceCycles: calib.Apps[0].MeanServiceTime}
	if b.MeanInterarrival, err = workload.MeanInterarrivalForLoad(b.MeanServiceCycles, load); err != nil {
		return LCBaseline{}, err
	}
	res, err := BaselineJob(cfg, profile, targetLines, load, b.MeanInterarrival, requestFactor).run()
	if err != nil {
		return LCBaseline{}, err
	}
	b.MeanLatency, b.TailLatency = res.Apps[0].MeanLatency, res.Apps[0].TailLatency
	return b, nil
}

// MeasureBatchBaselineIPC runs BatchBaselineJob and returns its IPC.
func MeasureBatchBaselineIPC(cfg Config, profile workload.BatchProfile, lines uint64, roiInstructions uint64) (float64, error) {
	res, err := BatchBaselineJob(cfg, profile, lines, roiInstructions).run()
	if err != nil {
		return 0, err
	}
	return res.Apps[0].IPC, nil
}

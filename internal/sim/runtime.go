package sim

import (
	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/monitor"
	"repro/internal/queueing"
	"repro/internal/trace"
	"repro/internal/workload"
)

// appRuntime holds the per-application state of a running simulation: its
// address stream, timing parameters, local clock, monitoring hardware, and —
// for latency-critical apps — its request record.
type appRuntime struct {
	idx  int
	spec AppSpec

	lcApp    *workload.LCApp
	batchApp *workload.BatchApp
	// stream generates the app's LLC addresses: the profile's synthetic
	// *workload.Stream, or a *workload.TraceStream replaying a recorded trace
	// when the spec carries one.
	stream workload.AddressStream

	// Timing parameters.
	apki           float64
	baseCPI        float64
	mlpFactor      float64
	instrPerAccess uint64 // batch instructions per access

	// The private cache levels in front of the shared LLC (a flat machine's
	// hierarchy has none and passes every access straight through), and the
	// cycle cost of an access served at each hierarchy level, indexed by
	// cache.LevelL1/LevelL2/LevelLLC/LevelMemory. The costs and the exposed
	// miss penalty are precomputed from the core model at construction (they
	// depend only on per-app constants, and doAccess runs once per simulated
	// access).
	hier        *cache.Hierarchy
	levelCycles [cache.NumLevels]uint64
	missPenalty float64

	// Local clock and counters.
	clock    uint64
	counters cpu.PerfCounters

	// Monitoring hardware.
	umon  *monitor.UMON
	mlp   *monitor.MLPProfiler
	reuse *monitor.ReuseProfiler

	// Reconfiguration-window snapshots.
	umonAtReconfig     monitor.UMONSnapshot
	countersAtReconfig cpu.PerfCounters
	idleInInterval     uint64

	// Measurement-window snapshots (set at the end of the warmup interval).
	measuring         bool
	countersAtMeasure cpu.PerfCounters
	measureStartCycle uint64

	// Latency-critical serving state. reqs is the slot's request record,
	// one entry per request the run generates, warm-up first (so the
	// measured requests are its suffix past warmupRequests), each Arrival
	// filled at construction. It is also the single worker's FIFO queue:
	// reqs[:generated] have arrived, reqs[served:generated] wait, and while
	// inService the request in service is reqs[served-1].
	reqs               []queueing.Request
	generated          int
	served             int
	inService          bool
	toGenerate         int
	warmupRequests     int
	accessesLeft       uint64
	reqInstrPerAccess  uint64
	active             bool
	accessesSinceCheck uint64

	// Batch region of interest. roiReached records that the app has retired
	// its region of interest (it keeps running — and contending for cache —
	// until the whole run terminates, but the scheduler's batch-only
	// termination count drops when it crosses the threshold).
	roiInstructions uint64
	roiReached      bool

	// done marks an app that has no further work to simulate.
	done bool

	// tr records structured run events (Config.Trace); nil means off.
	tr *trace.Sink
}

// newAppRuntime builds the runtime state for one application slot.
func newAppRuntime(idx int, spec AppSpec, cfg Config) (*appRuntime, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	seed := spec.Seed
	if seed == 0 {
		seed = workload.SplitSeed(cfg.Seed, uint64(idx)+101)
	}
	a := &appRuntime{idx: idx, spec: spec, tr: cfg.Trace}
	umon, err := monitor.NewUMON(cfg.LLC.Lines, cfg.UMONWays, cfg.UMONSampleSets)
	if err != nil {
		return nil, err
	}
	a.umon = umon
	a.mlp = monitor.NewMLPProfiler(0.999)

	if spec.IsLC() {
		lc, err := workload.NewLCApp(*spec.LC, idx, seed)
		if err != nil {
			return nil, err
		}
		a.lcApp = lc
		a.stream = lc.Stream()
		a.apki = spec.LC.APKI
		a.baseCPI = spec.LC.BaseCPI
		a.mlpFactor = spec.LC.MLP
		a.reuse = monitor.NewReuseProfiler(monitor.DefaultReuseMaxAge)
		a.toGenerate = spec.requestCount() + spec.warmupCount()
		a.warmupRequests = spec.warmupCount()
		times := spec.ArrivalTimes
		if times == nil {
			// The slot draws its own stream: exponential interarrivals at
			// the schedule's rate (the constant schedule is plain Poisson).
			if times, err = workload.ArrivalTimes(spec.MeanInterarrival, seed, spec.Sched, a.toGenerate); err != nil {
				return nil, err
			}
		}
		a.reqs = make([]queueing.Request, a.toGenerate)
		for i := range a.reqs {
			a.reqs[i].Arrival = times[i]
		}
	} else {
		b, err := workload.NewBatchApp(*spec.Batch, idx, seed)
		if err != nil {
			return nil, err
		}
		a.batchApp = b
		a.stream = b.Stream()
		a.apki = spec.Batch.APKI
		a.baseCPI = spec.Batch.BaseCPI
		a.mlpFactor = spec.Batch.MLP
		a.roiInstructions = spec.roiInstructions()
	}
	if spec.Trace != nil {
		// A recorded trace replaces the profile's synthetic address stream.
		// The spec's stream is a template whose cursor never advances: each
		// run clones it (sharing the immutable backing words, typically an
		// mmap'd trace image), so one loaded trace deterministically seeds any
		// number of concurrent runs.
		a.stream = spec.Trace.Clone()
	}
	ipa := 1000 / a.apki
	if ipa < 1 {
		ipa = 1
	}
	a.instrPerAccess = uint64(ipa + 0.5)
	a.missPenalty = cfg.Core.MissPenalty(a.mlpFactor)
	for level := range a.levelCycles {
		a.levelCycles[level] = uint64(cfg.Core.AccessCyclesAtLevel(a.baseCPI, a.apki, a.mlpFactor, level))
	}
	return a, nil
}

// isLC reports whether the slot is latency-critical.
func (a *appRuntime) isLC() bool { return a.lcApp != nil }

// hasWork reports whether a latency-critical app currently has a request in
// service or waiting.
func (a *appRuntime) hasWork() bool { return a.inService || a.queued() }

// queued reports whether a request has arrived and waits for the worker.
func (a *appRuntime) queued() bool { return a.served < a.generated }

// enqueueArrivals admits every request whose (coalesced) arrival time is at
// or before now, drawing its service demand.
func (a *appRuntime) enqueueArrivals(now uint64) {
	for a.generated < a.toGenerate && a.reqs[a.generated].Arrival+coalesceDelayCycles <= now {
		req := &a.reqs[a.generated]
		demand := a.lcApp.NextServiceDemand()
		if len(a.spec.SlowWindows) > 0 {
			drawn := demand
			demand = inflateDemand(demand, req.Arrival, a.spec.SlowWindows)
			if demand != drawn {
				a.tr.Record(trace.KindFault, int32(a.idx), req.Arrival, 0, drawn, demand)
			}
		}
		req.Demand = demand
		a.generated++
	}
}

// startNextRequest starts the oldest queued request and prepares its access
// budget.
func (a *appRuntime) startNextRequest() {
	req := &a.reqs[a.served]
	a.served++
	a.inService = true
	req.Start = a.clock
	a.stream.BeginRequest()
	accesses := uint64(float64(req.Demand)*a.apki/1000 + 0.5)
	if accesses < 1 {
		accesses = 1
	}
	a.accessesLeft = accesses
	ipa := req.Demand / accesses
	if ipa < 1 {
		ipa = 1
	}
	a.reqInstrPerAccess = ipa
}

// collectRequests sets an LC slot's latency outputs from its request record
// (collect runs only once the run is complete, so every request in it has
// completed).
func (a *appRuntime) collectRequests(ar *AppResult, tailPercentile float64) {
	d := queueing.Derive(a.reqs, a.warmupRequests)
	ar.Requests = uint64(len(d.Record.Arrivals))
	ar.RequestArrivals, ar.RequestLatencies = d.Record.Arrivals, d.Record.Values
	ar.Latencies, ar.ServiceTimes = d.Latencies, d.ServiceTimes
	ar.MeanLatency = ar.Latencies.Mean()
	ar.MeanServiceTime = ar.ServiceTimes.Mean()
	if tail, err := ar.Latencies.TailMean(tailPercentile); err == nil {
		ar.TailLatency = tail
	}
}

// startMeasurement snapshots counters at the start of the measured window.
func (a *appRuntime) startMeasurement() {
	if a.measuring {
		return
	}
	a.measuring = true
	a.countersAtMeasure = a.counters
	a.measureStartCycle = a.clock
}

// measuredIPC returns instructions per cycle over the measured window.
func (a *appRuntime) measuredIPC() float64 {
	c := a.counters.Sub(a.countersAtMeasure)
	if !a.measuring || a.clock <= a.measureStartCycle {
		return a.counters.IPC()
	}
	return float64(c.Instructions) / float64(a.clock-a.measureStartCycle)
}

// measuredMissRate returns the LLC miss rate over the measured window.
func (a *appRuntime) measuredMissRate() float64 {
	if !a.measuring {
		return a.counters.MissRate()
	}
	return a.counters.Sub(a.countersAtMeasure).MissRate()
}

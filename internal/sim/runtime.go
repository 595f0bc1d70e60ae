package sim

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/monitor"
	"repro/internal/queueing"
	"repro/internal/trace"
	"repro/internal/workload"
)

// appRuntime holds the per-application state of a running simulation: its
// address stream, timing parameters, local clock, monitoring hardware, and —
// for latency-critical apps — its request queue and latency recorder.
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

	// Per-access cycle costs, precomputed from the core model at construction
	// (they depend only on per-app constants, and doAccess runs once per
	// simulated access).
	hitCycles   uint64
	missCycles  uint64
	missPenalty float64

	// Private cache levels (nil when the configuration has no hierarchy, in
	// which case doAccess takes the flat single-level path) and the
	// precomputed cycle cost of an access served at each hierarchy level,
	// indexed by cache.LevelL1/LevelL2/LevelLLC/LevelMemory.
	hier        *cache.Hierarchy
	levelCycles [cache.NumLevels]uint64

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

	// Latency-critical serving state.
	queue              queueing.FIFO
	current            *queueing.Request
	accessesLeft       uint64
	reqInstrPerAccess  uint64
	generated          int
	toGenerate         int
	warmupRequests     int
	completed          int
	nextArrivalRaw     uint64
	nextArrivalVisible uint64
	arrivals           workload.ArrivalProcess
	recorder           *queueing.Recorder
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
		a.recorder = queueing.NewRecorderWindowed(spec.requestCount(), cfg.LatencyWindowCycles)
		if spec.Arrivals != nil {
			// An explicit pre-generated stream (a cluster leaf stream)
			// replays verbatim; the generating front-end already applied the
			// rate, the schedule and the seeds. The cluster aggregator joins
			// leaves back to queries by request ID, so keep the
			// order-preserving latency copy for these slots only.
			if ra, ok := spec.Arrivals.(*workload.ReplayArrivals); ok && ra.Remaining() < a.toGenerate {
				// Refuse under-provisioned replays up front: past the end the
				// process can only emit its exhaustion sentinel, which would
				// silently stretch every missing interarrival to the sentinel
				// gap instead of replaying recorded times.
				return nil, fmt.Errorf("sim: app %q replays an arrival stream with %d times remaining but the run needs %d (%d warmup + %d measured); provision the full stream",
					spec.Name(), ra.Remaining(), a.toGenerate, a.warmupRequests, spec.requestCount())
			}
			a.recorder.KeepPerRequest(spec.requestCount())
			a.arrivals = spec.Arrivals
		} else {
			interarrival := spec.MeanInterarrival
			if interarrival <= 0 {
				return nil, fmt.Errorf("sim: app %q has no mean interarrival; calibrate the load first", spec.Name())
			}
			// The constant schedule takes the plain Poisson path (identical
			// code, identical seeds) so pre-schedule runs reproduce bit for
			// bit; a time-varying schedule wraps the same exponential stream
			// in the rate modulator, with the schedule's own randomness (MMPP
			// dwells) on an independent derived seed.
			arr, err := workload.NewScheduledArrivals(interarrival, workload.SplitSeed(seed, 7),
				spec.Sched, workload.SplitSeed(seed, 11))
			if err != nil {
				return nil, err
			}
			a.arrivals = arr
		}
		a.nextArrivalRaw = a.arrivals.Next(0)
		a.nextArrivalVisible = a.nextArrivalRaw + cfg.CoalesceDelayCycles
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
	a.hitCycles = uint64(cfg.Core.AccessCycles(a.baseCPI, a.apki, a.mlpFactor, false))
	a.missCycles = uint64(cfg.Core.AccessCycles(a.baseCPI, a.apki, a.mlpFactor, true))
	a.missPenalty = cfg.Core.MissPenalty(a.mlpFactor)
	for level := range a.levelCycles {
		a.levelCycles[level] = uint64(cfg.Core.AccessCyclesAtLevel(a.baseCPI, a.apki, a.mlpFactor, level))
	}
	return a, nil
}

// attachHierarchy gives the app its private L1/L2 levels in front of the
// shared LLC. Called by the simulator once the LLC exists; a nil hierarchy
// (flat configuration) leaves doAccess on the single-level path.
func (a *appRuntime) attachHierarchy(cfg cache.HierarchyConfig, llc cache.Cache) error {
	if !cfg.Enabled() {
		return nil
	}
	h, err := cache.NewHierarchy(cfg, llc)
	if err != nil {
		return err
	}
	a.hier = h
	return nil
}

// isLC reports whether the slot is latency-critical.
func (a *appRuntime) isLC() bool { return a.lcApp != nil }

// hasWork reports whether a latency-critical app currently has a request in
// service or waiting.
func (a *appRuntime) hasWork() bool { return a.current != nil || !a.queue.Empty() }

// enqueueArrivals materialises every request whose (coalesced) arrival time is
// at or before now.
func (a *appRuntime) enqueueArrivals(now uint64, coalesce uint64) {
	for a.generated < a.toGenerate && a.nextArrivalVisible <= now {
		demand := a.lcApp.NextServiceDemand()
		if len(a.spec.SlowWindows) > 0 {
			drawn := demand
			demand = inflateDemand(demand, a.nextArrivalRaw, a.spec.SlowWindows)
			if demand != drawn {
				a.tr.Record(trace.KindFault, int32(a.idx), a.nextArrivalRaw, 0, drawn, demand)
			}
		}
		req := &queueing.Request{
			ID:            uint64(a.generated),
			ArrivalCycle:  a.nextArrivalRaw,
			ServiceDemand: demand,
			Warmup:        a.generated < a.warmupRequests,
		}
		a.queue.Push(req)
		a.generated++
		a.nextArrivalRaw = a.arrivals.Next(a.nextArrivalRaw)
		a.nextArrivalVisible = a.nextArrivalRaw + coalesce
	}
}

// startNextRequest pops the next queued request and prepares its access budget.
func (a *appRuntime) startNextRequest() {
	req := a.queue.Pop()
	req.StartCycle = a.clock
	a.current = req
	a.stream.BeginRequest()
	accesses := uint64(float64(req.ServiceDemand)*a.apki/1000 + 0.5)
	if accesses < 1 {
		accesses = 1
	}
	a.accessesLeft = accesses
	ipa := req.ServiceDemand / accesses
	if ipa < 1 {
		ipa = 1
	}
	a.reqInstrPerAccess = ipa
}

// finishedAllRequests reports whether the app has generated and completed all
// its requests.
func (a *appRuntime) finishedAllRequests() bool {
	return a.generated >= a.toGenerate && !a.hasWork()
}

// instructionsDone returns the instructions retired so far.
func (a *appRuntime) instructionsDone() uint64 { return a.counters.Instructions }

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

package sim

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/monitor"
	"repro/internal/policy"
	"repro/internal/trace"
)

// partID maps an application slot to its cache partition.
func partID(app int) cache.PartitionID { return cache.PartitionID(app) }

// Simulator runs one workload mix under one management policy on the
// configured CMP.
type Simulator struct {
	cfg    Config
	apps   []*appRuntime
	llc    cache.Cache
	policy policy.Policy
	view   *simView
	// initial is a copy of the policy as New received it, for Checkpoint's
	// re-run; ColdRestart clears it.
	initial policy.Policy

	// Event scheduling state: sched is a min-heap of not-yet-finished apps
	// ordered by (local clock, slot index); running is the app currently
	// being stepped (popped off the heap); the remaining fields are the
	// counters the run's termination condition is tracked with, so the inner
	// loop never rescans all apps.
	sched     []*appRuntime
	running   *appRuntime
	hasLC     bool
	lcLeft    int
	batchLeft int

	nextReconfig     uint64
	reconfigurations uint64
	targetSamples    []float64
	targetSampleN    uint64
	measureArmed     bool
}

// New builds a simulator for the given configuration, application slots and
// policy. The LLC is created with one partition per slot.
func New(cfg Config, specs []AppSpec, pol policy.Policy) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("sim: need at least one application")
	}
	if pol == nil {
		return nil, fmt.Errorf("sim: need a policy")
	}
	llcCfg := cfg.LLC
	llcCfg.Partitions = len(specs)
	llc, err := cache.New(llcCfg)
	if err != nil {
		return nil, err
	}
	s := &Simulator{
		cfg:           cfg,
		llc:           llc,
		policy:        pol,
		initial:       pol.Clone(),
		nextReconfig:  cfg.ReconfigIntervalCycles,
		targetSamples: make([]float64, len(specs)),
	}
	s.cfg.LLC = llcCfg
	for i, spec := range specs {
		a, err := newAppRuntime(i, spec, cfg)
		if err != nil {
			return nil, err
		}
		// Each app's private levels sit in front of the one shared LLC.
		if a.hier, err = cache.NewHierarchy(cfg.Hierarchy, llc); err != nil {
			return nil, err
		}
		s.apps = append(s.apps, a)
	}
	s.view = &simView{s: s}
	s.setInitialTargets()
	return s, nil
}

// setInitialTargets gives latency-critical apps their target allocations and
// splits the remainder evenly among batch apps, the sane pre-profiling start
// every policy shares.
func (s *Simulator) setInitialTargets() {
	total := s.cfg.LLC.Lines
	var lcTotal uint64
	batch := 0
	for _, a := range s.apps {
		if a.isLC() {
			lcTotal += a.spec.targetLines()
		} else {
			batch++
		}
	}
	if lcTotal > total {
		lcTotal = total
	}
	perBatch := uint64(0)
	if batch > 0 {
		perBatch = (total - lcTotal) / uint64(batch)
	}
	for _, a := range s.apps {
		if a.isLC() {
			s.llc.SetPartitionTarget(partID(a.idx), a.spec.targetLines())
		} else {
			s.llc.SetPartitionTarget(partID(a.idx), perBatch)
		}
	}
}

// globalTime returns the time of the slowest still-running application, the
// point up to which the whole machine has simulated. During a run this is the
// minimum of the scheduler heap's root and the currently stepped app — O(1)
// instead of a scan over all apps.
func (s *Simulator) globalTime() uint64 {
	var t uint64
	found := false
	if a := s.running; a != nil && !a.done {
		t = a.clock
		found = true
	}
	if len(s.sched) > 0 && (!found || s.sched[0].clock < t) {
		t = s.sched[0].clock
		found = true
	}
	if !found {
		// Everyone is done: report the maximum clock.
		for _, a := range s.apps {
			if a.clock > t {
				t = a.clock
			}
		}
	}
	return t
}

// schedLess orders the run queue by (local clock, slot index) — the same
// deterministic smallest-clock-first, lowest-slot tie-break a sequential scan
// over the app slots produces.
func schedLess(a, b *appRuntime) bool {
	return a.clock < b.clock || (a.clock == b.clock && a.idx < b.idx)
}

// pushApp inserts an app into the scheduler heap.
func (s *Simulator) pushApp(a *appRuntime) {
	s.sched = append(s.sched, a)
	i := len(s.sched) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !schedLess(s.sched[i], s.sched[p]) {
			break
		}
		s.sched[i], s.sched[p] = s.sched[p], s.sched[i]
		i = p
	}
}

// popNext removes and returns the least-advanced app, or nil when the heap is
// empty.
func (s *Simulator) popNext() *appRuntime {
	n := len(s.sched)
	if n == 0 {
		return nil
	}
	a := s.sched[0]
	last := s.sched[n-1]
	s.sched[n-1] = nil
	s.sched = s.sched[:n-1]
	if n--; n > 0 {
		i := 0
		for {
			child := 2*i + 1
			if child >= n {
				break
			}
			if r := child + 1; r < n && schedLess(s.sched[r], s.sched[child]) {
				child = r
			}
			if !schedLess(s.sched[child], last) {
				break
			}
			s.sched[i] = s.sched[child]
			i = child
		}
		s.sched[i] = last
	}
	return a
}

// startSchedule builds the scheduler heap and termination counters.
func (s *Simulator) startSchedule() {
	s.sched = s.sched[:0]
	s.hasLC, s.lcLeft, s.batchLeft = false, 0, 0
	for _, a := range s.apps {
		if a.isLC() {
			s.hasLC = true
			if !a.done {
				s.lcLeft++
			}
		} else {
			a.roiReached = a.counters.Instructions >= a.roiInstructions
			if !a.roiReached {
				s.batchLeft++
			}
		}
		if !a.done {
			s.pushApp(a)
		}
	}
}

// pending reports whether the run's termination condition still fails: with
// latency-critical apps, any of them not done; in a batch-only run, any batch
// app short of its region of interest.
func (s *Simulator) pending() bool {
	if s.hasLC {
		return s.lcLeft > 0
	}
	return s.batchLeft > 0
}

// applyResizes applies a policy's partition retargets, clamping each target to
// the cache capacity.
func (s *Simulator) applyResizes(resizes []policy.Resize) {
	for _, r := range resizes {
		if r.App < 0 || r.App >= len(s.apps) {
			continue
		}
		target := r.Target
		if target > s.cfg.LLC.Lines {
			target = s.cfg.LLC.Lines
		}
		s.llc.SetPartitionTarget(partID(r.App), target)
	}
}

// Run simulates until every latency-critical application has completed its
// requests (or, in a batch-only run, until every batch application has retired
// its region of interest), and returns the per-application results.
//
// The scheduler pops the least-advanced application off a min-heap of local
// clocks and steps it in a batch until its clock passes the next
// application's clock by more than StepQuantumCycles, it crosses a
// reconfiguration boundary, or it finishes — amortising heap maintenance and
// the reconfiguration/termination checks over runs of same-app accesses
// instead of paying three O(N) scans per access. With a zero quantum the
// interleaving is exactly the sequential smallest-clock-first order.
//
// Run may be called on a simulator previously paused by RunUntil: the
// scheduler state is rebuilt from the per-app clocks (a pure function of
// them), so a paused-and-resumed run retraces exactly the trajectory an
// uninterrupted run takes.
func (s *Simulator) Run() (Result, error) {
	if err := s.runLoop(^uint64(0)); err != nil {
		return Result{}, err
	}
	return s.collect(), nil
}

// RunUntil advances the simulation until the least-advanced application's
// clock reaches stopCycle (or the run completes, whichever is first) and
// pauses. Pausing happens only at scheduler pop boundaries — the exact points
// an uninterrupted run re-evaluates which application to step — so resuming
// with Run (or another RunUntil) is bit-identical to never having paused.
func (s *Simulator) RunUntil(stopCycle uint64) error {
	return s.runLoop(stopCycle)
}

// ColdRestart models a process restart at a paused boundary (after RunUntil):
// the shared LLC, every private cache level, all monitoring hardware and the
// policy are rebuilt from scratch — exactly the state a restarted server loses
// — while everything that survives a restart in the modelled system is kept:
// local clocks, queued and in-flight requests, arrival cursors, random
// streams, performance counters and the request record. The in-flight
// request (if any) finishes its remaining accesses against the cold cache,
// and the reconfiguration cadence continues on its original boundaries, so a
// restarted run stays deterministic at any parallelism. pol must be a fresh
// policy instance; the old one's learned state is discarded with the caches.
func (s *Simulator) ColdRestart(pol policy.Policy) error {
	if pol == nil {
		return fmt.Errorf("sim: cold restart needs a fresh policy")
	}
	if s.running != nil {
		return fmt.Errorf("sim: cold restart is only legal at a paused scheduler boundary")
	}
	// The LLC, the hierarchy levels and all monitors reset in place, so a
	// restart reuses their storage instead of reallocating LLC-sized
	// structures.
	s.llc.Reset()
	s.policy = pol
	s.initial = nil
	s.cfg.Trace.Record(trace.KindRestart, 0, s.globalTime(), 0, 0, 0)
	for _, a := range s.apps {
		a.hier.Reset()
		a.umon.Reset()
		a.mlp.Reset()
		if a.reuse != nil {
			a.reuse.Reset()
		}
		a.umonAtReconfig = monitor.UMONSnapshot{}
		a.countersAtReconfig = a.counters
		a.idleInInterval = 0
		a.accessesSinceCheck = 0
	}
	s.setInitialTargets()
	return nil
}

// runLoop is the scheduler loop behind Run and RunUntil, stopping (with every
// application pushed back on the heap) once the minimum local clock reaches
// stop.
func (s *Simulator) runLoop(stop uint64) error {
	s.startSchedule()
	quantum := s.cfg.StepQuantumCycles
	maxCycles := s.cfg.MaxCycles
	for s.pending() {
		a := s.popNext()
		if a == nil {
			break
		}
		if a.clock >= stop {
			// a holds the minimum clock: the whole machine has reached the
			// pause boundary. Push it back so the heap invariant (every
			// not-done app queued) holds for the resume's rebuild.
			s.pushApp(a)
			return nil
		}
		s.running = a
		// a holds the minimum clock, so it carries the global time: fire the
		// reconfiguration boundaries it has crossed and detect runaway runs.
		if a.clock >= s.nextReconfig {
			s.reconfigureAt(a.clock)
		}
		if maxCycles > 0 && a.clock > maxCycles {
			s.running = nil
			return fmt.Errorf("sim: exceeded MaxCycles=%d; configuration is likely unstable (offered load too high)", maxCycles)
		}
		quantumStart := a.clock
		countersAtQuantum := a.counters
		// The batch horizon: a runs while it would still win the heap within
		// the quantum's slack.
		horizon, horizonIdx := ^uint64(0), -1
		if len(s.sched) > 0 {
			horizon, horizonIdx = s.sched[0].clock+quantum, s.sched[0].idx
		}
		for !a.done {
			if a.clock > horizon || (a.clock == horizon && a.idx > horizonIdx) {
				break
			}
			if a.clock >= s.nextReconfig {
				break
			}
			if maxCycles > 0 && a.clock > maxCycles {
				break
			}
			if a.isLC() {
				s.stepLC(a)
			} else {
				s.stepBatch(a)
				if !a.roiReached && a.counters.Instructions >= a.roiInstructions {
					a.roiReached = true
					s.batchLeft--
					if !s.hasLC && s.batchLeft == 0 {
						break
					}
				}
			}
		}
		s.running = nil
		if a.clock > quantumStart {
			s.cfg.Trace.Record(trace.KindQuantum, int32(a.idx), quantumStart, a.clock-quantumStart,
				a.counters.LLCAccesses-countersAtQuantum.LLCAccesses,
				a.counters.LLCMisses-countersAtQuantum.LLCMisses)
		}
		if a.done {
			if a.isLC() {
				s.lcLeft--
			}
		} else {
			s.pushApp(a)
		}
	}
	return nil
}

// stepBatch advances a batch application by one LLC access.
func (s *Simulator) stepBatch(a *appRuntime) {
	s.doAccess(a, 0, a.instrPerAccess)
}

// stepLC advances a latency-critical application by one event: an LLC access
// of the in-flight request, a request completion, an idle->active transition,
// or an idle-time jump to the next arrival.
func (s *Simulator) stepLC(a *appRuntime) {
	a.enqueueArrivals(a.clock)

	if a.inService {
		s.doAccess(a, a.stream.RequestID(), a.reqInstrPerAccess)
		a.accessesLeft--
		a.accessesSinceCheck++
		if a.accessesSinceCheck >= lcCheckAccessInterval {
			a.accessesSinceCheck = 0
			s.applyResizes(s.policy.OnLCCheck(a.idx, s.view))
		}
		if a.accessesLeft == 0 {
			s.completeRequest(a)
		}
		return
	}

	// No request in service.
	if !a.queued() {
		if a.generated >= a.toGenerate {
			a.done = true
			return
		}
		// Idle: advance this app's clock to the next arrival and yield, so
		// every other application simulates through the idle gap (and has the
		// chance to take this app's cache space) before the arrival is served.
		// Processing the arrival in the same step would let the request see
		// the cache as it was when the app went idle, hiding inertia.
		if next := a.reqs[a.generated].Arrival + coalesceDelayCycles; next > a.clock {
			a.idleInInterval += next - a.clock
			a.clock = next
			return
		}
		a.enqueueArrivals(a.clock)
		if !a.queued() {
			return
		}
	}

	wasIdle := !a.active
	a.startNextRequest()
	a.active = true
	if wasIdle {
		s.applyResizes(s.policy.OnActive(a.idx, s.view))
	}
}

// completeRequest finishes the in-flight request, fires the policy hooks, and
// either starts the next queued request or transitions to idle.
func (s *Simulator) completeRequest(a *appRuntime) {
	req := &a.reqs[a.served-1]
	req.Completion = a.clock
	a.inService = false
	s.applyResizes(s.policy.OnRequestComplete(a.idx, req.Latency(), s.view))
	s.applyResizes(s.policy.OnLCCheck(a.idx, s.view))

	a.enqueueArrivals(a.clock)
	if a.queued() {
		a.startNextRequest()
		return
	}
	// Out of work: go idle (even if this was the last request, so the policy
	// reclaims the space for the remainder of the run).
	a.active = false
	s.applyResizes(s.policy.OnIdle(a.idx, s.view))
	if a.generated >= a.toGenerate {
		a.done = true
	}
}

// doAccess performs one memory access for an application and advances its
// clock: probe the private levels, fall through to the shared LLC on an L2
// miss, and feed the monitoring hardware (UMON, MLP and reuse profilers) from
// the L2-filtered stream that reaches the LLC only — the stream a real
// LLC-side UMON samples. A flat machine is a hierarchy with no private
// levels, so there every access reaches the LLC.
func (s *Simulator) doAccess(a *appRuntime, meta uint64, instructions uint64) {
	addr := a.stream.Next()
	res := a.hier.Access(addr, partID(a.idx), meta)
	cycles := a.levelCycles[res.Level]
	a.counters.AddAtLevel(instructions, cycles, res.Level)
	a.clock += cycles
	if !res.ReachedLLC {
		return
	}
	a.umon.Access(addr)
	if res.Level == cache.LevelMemory {
		a.mlp.RecordMiss(a.missPenalty)
	}
	if a.reuse != nil {
		age := uint64(0)
		if res.LLC.Hit && meta >= res.LLC.PrevMeta {
			age = meta - res.LLC.PrevMeta
		}
		a.reuse.Record(res.LLC.Hit, age)
	}
}

// reconfigureAt fires the periodic policy reconfiguration for every interval
// boundary the global clock has crossed. now must be the current global time
// (the scheduler calls it with the minimum local clock).
func (s *Simulator) reconfigureAt(now uint64) {
	// A mostly idle machine (e.g. an isolation run at a tiny load) can jump
	// many intervals at once; collapsing the backlog into one reconfiguration
	// keeps the loop O(events) instead of O(idle time).
	interval := s.cfg.ReconfigIntervalCycles
	if behind := (now - s.nextReconfig) / interval; behind > 1 {
		s.nextReconfig += (behind - 1) * interval
	}
	for now >= s.nextReconfig {
		s.reconfigurations++
		s.cfg.Trace.Record(trace.KindReconfig, 0, s.nextReconfig, 0, s.reconfigurations, 0)
		s.applyResizes(s.policy.Reconfigure(s.view))
		// Take fresh window snapshots after the policy has read the old ones.
		for _, a := range s.apps {
			a.umonAtReconfig = a.umon.Snapshot()
			a.countersAtReconfig = a.counters
			a.idleInInterval = 0
			if !s.measureArmed {
				a.startMeasurement()
			}
			s.targetSamples[a.idx] += float64(s.llc.PartitionTarget(partID(a.idx)))
		}
		s.targetSampleN++
		s.measureArmed = true
		s.nextReconfig += s.cfg.ReconfigIntervalCycles
	}
}

// collect builds the run's Result.
func (s *Simulator) collect() Result {
	res := Result{Policy: s.policy.Name(), Reconfigurations: s.reconfigurations}
	var maxClock uint64
	st := s.llc.Stats()
	if st.Evictions > 0 {
		res.ForcedEvictionFraction = float64(st.ForcedEvictions) / float64(st.Evictions)
	}
	for _, a := range s.apps {
		if a.clock > maxClock {
			maxClock = a.clock
		}
		ar := AppResult{
			Name:            a.spec.Name(),
			LatencyCritical: a.isLC(),
			IPC:             a.measuredIPC(),
			Instructions:    a.counters.Instructions,
			MissRate:        a.measuredMissRate(),
			APKI:            a.counters.APKI(),
			OfferedLoad:     a.spec.Load,
		}
		if da := a.counters.DemandAccesses; da > 0 {
			ar.L1HitFraction = float64(a.counters.L1Hits) / float64(da)
			ar.L2HitFraction = float64(a.counters.L2Hits) / float64(da)
		}
		if s.targetSampleN > 0 {
			ar.MeanPartitionTarget = s.targetSamples[a.idx] / float64(s.targetSampleN)
		} else {
			ar.MeanPartitionTarget = float64(s.llc.PartitionTarget(partID(a.idx)))
		}
		if a.isLC() {
			a.collectRequests(&ar, s.cfg.TailPercentile)
			ar.ReuseBreakdown = a.reuse.Breakdown()
			ar.Schedule = a.spec.Sched.String()
		}
		res.Apps = append(res.Apps, ar)
	}
	res.Cycles = maxClock
	return res
}

// RunMix is the convenience entry point: build a simulator and run it.
func RunMix(cfg Config, specs []AppSpec, pol policy.Policy) (Result, error) {
	s, err := New(cfg, specs, pol)
	if err != nil {
		return Result{}, err
	}
	return s.Run()
}

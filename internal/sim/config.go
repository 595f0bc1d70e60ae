// Package sim implements the chip-multiprocessor simulator the reproduction
// runs its experiments on: six cores sharing a partitioned last-level cache,
// latency-critical applications serving open-loop request streams, batch
// applications executing continuously, per-core utility monitors and MLP
// profilers, and a policy runtime invoked on periodic reconfigurations and
// idle/active events — the Figure 3 system of the paper, at line-address
// granularity with analytic core timing.
package sim

import (
	"fmt"
	"slices"

	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Config describes the simulated machine (the scaled-down analogue of the
// paper's Table 2 system).
type Config struct {
	// LLC is the shared last-level cache configuration.
	LLC cache.ArrayConfig
	// Hierarchy configures each application's private L1/L2 filter levels in
	// front of the shared LLC (Table 2's per-core caches). The zero value
	// disables both levels: a flat machine, where every access reaches the
	// LLC. With levels enabled the LLC, the UMONs and the reuse profilers all
	// observe the L2-filtered miss stream.
	Hierarchy cache.HierarchyConfig
	// Core is the core-timing model (OOO by default).
	Core cpu.Model
	// ReconfigIntervalCycles is how often the policy's Reconfigure runs (the
	// paper uses 50 ms; the scaled default is 2M cycles).
	ReconfigIntervalCycles uint64
	// TailPercentile is the percentile used for tail-latency metrics (95).
	TailPercentile float64
	// UMONWays and UMONSampleSets size the per-core utility monitors.
	UMONWays       int
	UMONSampleSets int
	// MissCurvePoints is the interpolation resolution handed to policies.
	MissCurvePoints int
	// Seed drives all run randomness (arrival times, address streams).
	Seed uint64
	// MaxCycles aborts runaway simulations (0 = no limit).
	MaxCycles uint64
	// StepQuantumCycles bounds how far the scheduler lets the least-advanced
	// application run past the next application's local clock before
	// rescheduling. Larger quanta amortise scheduler work over longer runs of
	// same-app accesses at the cost of coarser interleaving; 0 reproduces the
	// exact smallest-clock-first interleaving. Runs are deterministic for any
	// fixed value (see DESIGN.md §2).
	StepQuantumCycles uint64
	// Deprecated: ignored — the simulator has one, serial, run path; kept only
	// until bench/ stops assigning it.
	IntraParallel int
	// Trace, when non-nil, records structured run events — scheduler quanta,
	// reconfiguration boundaries, fault activations and cold restarts — into
	// the sink's ring (see internal/trace). Recording is strictly
	// observational: the hooks only read simulator state, so numerics are
	// bit-identical with tracing on or off, and the field is excluded from
	// warm-pool identities (see poolIdentity).
	Trace *trace.Sink
}

// lcCheckAccessInterval is how many LLC accesses a latency-critical app
// performs between OnLCCheck calls, emulating the de-boost circuit's
// continuous comparison.
const lcCheckAccessInterval = 32

// coalesceDelayCycles models interrupt coalescing (Section 3.2): the worker
// sees each request this long after it arrives. Slow windows and latency are
// still measured from the raw arrival.
const coalesceDelayCycles = 2_000

// LinesFor2MB is the scaled line count standing in for a 2 MB LLC bank.
const LinesFor2MB = 2 * workload.LinesPerMB

// HierarchyForKB builds a private-level configuration from model-KB sizes
// (the units the -l1kb/-l2kb command flags use): 0 disables a level, and
// sizes are converted with the same LinesPerMB scaling as every other
// capacity, rounded up to the level's associativity. inclusiveL2 selects the
// L2 inclusion policy.
func HierarchyForKB(l1KB, l2KB float64, inclusiveL2 bool) cache.HierarchyConfig {
	level := func(kb float64, ways int) cache.LevelConfig {
		if kb <= 0 {
			return cache.LevelConfig{}
		}
		lines := uint64(kb * workload.LinesPerMB / 1024)
		w := uint64(ways)
		if lines < w {
			lines = w
		}
		if rem := lines % w; rem != 0 {
			lines += w - rem
		}
		return cache.LevelConfig{Lines: lines, Ways: ways}
	}
	cfg := cache.HierarchyConfig{L1: level(l1KB, 4), L2: level(l2KB, 8)}
	cfg.L2.Inclusive = inclusiveL2 && cfg.L2.Enabled()
	return cfg
}

// DefaultConfig returns the scaled Table 2 system: a 6-bank Vantage zcache LLC
// ("12 MB"), OOO cores, 95th-percentile tails.
func DefaultConfig() Config {
	return Config{
		LLC:                    cache.DefaultZ452(6*LinesFor2MB, 6),
		Hierarchy:              cache.DefaultHierarchy(),
		Core:                   cpu.DefaultModel(cpu.OutOfOrder),
		ReconfigIntervalCycles: 2_000_000,
		TailPercentile:         95,
		UMONWays:               32,
		UMONSampleSets:         64,
		MissCurvePoints:        256,
		Seed:                   1,
		StepQuantumCycles:      1024,
	}
}

// Validate reports configuration problems.
func (c Config) Validate() error {
	if err := c.LLC.Validate(); err != nil {
		return err
	}
	if err := c.Hierarchy.Validate(); err != nil {
		return err
	}
	for _, l := range []struct {
		name  string
		lines uint64
	}{
		{"L1", c.Hierarchy.L1.Lines}, {"L2", c.Hierarchy.L2.Lines},
	} {
		if l.lines >= c.LLC.Lines {
			return fmt.Errorf("sim: private %s (%d lines) must be smaller than the LLC (%d lines)",
				l.name, l.lines, c.LLC.Lines)
		}
	}
	if err := c.Core.Validate(); err != nil {
		return err
	}
	if c.ReconfigIntervalCycles == 0 {
		return fmt.Errorf("sim: reconfiguration interval must be positive")
	}
	if c.TailPercentile <= 0 || c.TailPercentile >= 100 {
		return fmt.Errorf("sim: tail percentile must be in (0,100), got %v", c.TailPercentile)
	}
	if c.UMONWays <= 0 || c.UMONSampleSets <= 0 {
		return fmt.Errorf("sim: UMON dimensions must be positive")
	}
	if c.MissCurvePoints < 2 {
		return fmt.Errorf("sim: miss curve needs at least 2 points")
	}
	return nil
}

// poolIdentity returns the configuration with every field that cannot change
// results cleared — the form a warm-pool key holds: two runs differing only
// in those fields produce bit-identical results and have to share an entry.
func (c Config) poolIdentity() Config {
	c.IntraParallel = 0 // ignored by the run
	c.Trace = nil       // observational
	return c
}

// AppSpec describes one application slot in a mix. Exactly one of LC and Batch
// must be set.
type AppSpec struct {
	// LC is the latency-critical profile for this slot (nil for batch slots).
	LC *workload.LCProfile
	// Batch is the batch profile for this slot (nil for latency-critical
	// slots).
	Batch *workload.BatchProfile

	// Load is the offered load a latency-critical app reports (fraction of
	// the isolated service rate, e.g. 0.2 or 0.6). The run never reads it:
	// MeanInterarrival sets the arrival rate.
	Load float64
	// MeanInterarrival is a latency-critical app's mean arrival spacing in
	// cycles (workload.MeanInterarrivalForLoad turns a calibrated service time
	// and a load into one). Required unless ArrivalTimes is set.
	MeanInterarrival float64
	// Sched modulates the arrival rate over simulated time (bursts, ramps,
	// diurnal cycles, flash crowds, MMPP bursty traffic). The zero value is
	// the constant schedule, which reproduces the plain Poisson arrival
	// process bit for bit. Only latency-critical slots may set a
	// non-constant schedule.
	Sched workload.ScheduleSpec
	// TargetLines is the latency-critical target allocation; 0 means the
	// profile's default.
	TargetLines uint64
	// DeadlineCycles is the latency-critical deadline (its isolated tail
	// latency); policies receive it through the View. 0 means "unknown", which
	// makes Ubik behave like StaticLC for that app.
	DeadlineCycles uint64
	// RequestFactor scales the profile's request count (1.0 = profile value).
	RequestFactor float64
	// ROIInstructions overrides the batch region of interest (0 = profile
	// value).
	ROIInstructions uint64
	// Seed gives the slot its own random streams; 0 derives one from the
	// run seed and the slot index.
	Seed uint64

	// ArrivalTimes, when set, are the slot's request arrival cycles, warm-up
	// first, replayed verbatim — how the cluster front-end hands each node its
	// share of a globally split query stream. They size the run: the first
	// ExplicitWarmup times are warm-up and the rest (at least one) are
	// measured, so the profile's request counts and RequestFactor are
	// ignored. Sched must be constant (a cluster-wide schedule is already in
	// the times) and MeanInterarrival becomes optional. When unset the run
	// draws its own times (workload.ArrivalTimes with the slot's seed). Only
	// latency-critical slots may set it.
	ArrivalTimes []uint64
	// ExplicitWarmup is the number of leading warm-up requests when
	// ArrivalTimes is set. Warm-up times must not follow measured ones (the
	// cluster planner guarantees this).
	ExplicitWarmup int

	// Trace replaces the slot's synthetic address stream with a recorded one
	// — the trace-replay analogue of ArrivalTimes. The stream is a template: the
	// simulator clones it at construction (sharing the immutable backing
	// words, typically an mmap'd trace image loaded by internal/tracein), so
	// one loaded trace deterministically seeds any number of runs, each
	// starting from the template's cursor. The slot's profile still supplies
	// timing (APKI, CPI, MLP, service demands); the trace supplies addresses
	// only. Valid on both latency-critical and batch slots.
	Trace *workload.TraceStream

	// SlowWindows inflate the slot's per-request service demand over cycle
	// windows — the fail-slow fault model: a request whose raw arrival time
	// falls inside a window has its drawn service demand multiplied by the
	// window's factor before it is enqueued. Windows must be sorted by start
	// cycle and non-overlapping; an empty slice reproduces the un-faulted
	// run bit for bit. Only latency-critical slots may set it.
	SlowWindows []SlowWindow
}

// SlowWindow is one fail-slow interval: requests arriving in
// [StartCycle, EndCycle) have their service demand scaled by Factor.
type SlowWindow struct {
	StartCycle, EndCycle uint64
	Factor               float64
}

// Contains reports whether the window covers the given arrival cycle.
func (w SlowWindow) Contains(cycle uint64) bool {
	return cycle >= w.StartCycle && cycle < w.EndCycle
}

// inflateDemand applies the first (unique, by the non-overlap invariant)
// matching slow window to a drawn service demand. The demand draw itself is
// never skipped, so faulted and un-faulted runs consume identical randomness
// and requests outside every window are bit-identical across the two.
func inflateDemand(demand, arrival uint64, windows []SlowWindow) uint64 {
	for _, w := range windows {
		if w.Contains(arrival) {
			d := uint64(float64(demand)*w.Factor + 0.5)
			if d < 1 {
				d = 1
			}
			return d
		}
	}
	return demand
}

// IsLC reports whether the slot holds a latency-critical application.
func (s AppSpec) IsLC() bool { return s.LC != nil }

// Name returns the profile name for the slot.
func (s AppSpec) Name() string {
	if s.LC != nil {
		return s.LC.Name
	}
	if s.Batch != nil {
		return s.Batch.Name
	}
	return "empty"
}

// Validate reports specification problems.
func (s AppSpec) Validate() error {
	if (s.LC == nil) == (s.Batch == nil) {
		return fmt.Errorf("sim: app spec must set exactly one of LC and Batch")
	}
	if s.LC != nil {
		if err := s.LC.Validate(); err != nil {
			return err
		}
		if err := s.Sched.Validate(); err != nil {
			return err
		}
		if s.ArrivalTimes != nil {
			if s.ExplicitWarmup < 0 || s.ExplicitWarmup >= len(s.ArrivalTimes) {
				return fmt.Errorf("sim: app %q replays %d arrival times with %d warm-up; at least one must be measured", s.LC.Name, len(s.ArrivalTimes), s.ExplicitWarmup)
			}
			if !slices.IsSorted(s.ArrivalTimes) {
				return fmt.Errorf("sim: app %q arrival times are not in ascending order", s.LC.Name)
			}
			if !s.Sched.IsConstant() {
				return fmt.Errorf("sim: app %q cannot combine a load schedule with explicit arrival times (the times already carry the schedule)", s.LC.Name)
			}
		} else {
			if !(s.MeanInterarrival > 0) {
				return fmt.Errorf("sim: latency-critical app %q needs a positive mean interarrival (calibrate the load first) or explicit arrival times", s.LC.Name)
			}
			if s.ExplicitWarmup != 0 {
				return fmt.Errorf("sim: app %q sets an explicit warm-up count without explicit arrival times", s.LC.Name)
			}
		}
		for i, w := range s.SlowWindows {
			if w.EndCycle <= w.StartCycle {
				return fmt.Errorf("sim: app %q slow window %d is empty (end %d <= start %d)", s.LC.Name, i, w.EndCycle, w.StartCycle)
			}
			if w.Factor < 1 {
				return fmt.Errorf("sim: app %q slow window %d needs an inflation factor >= 1, got %v", s.LC.Name, i, w.Factor)
			}
			if i > 0 && w.StartCycle < s.SlowWindows[i-1].EndCycle {
				return fmt.Errorf("sim: app %q slow windows must be sorted and non-overlapping (window %d starts at %d before window %d ends at %d)",
					s.LC.Name, i, w.StartCycle, i-1, s.SlowWindows[i-1].EndCycle)
			}
		}
	}
	if s.Batch != nil {
		if err := s.Batch.Validate(); err != nil {
			return err
		}
		if !s.Sched.IsConstant() {
			return fmt.Errorf("sim: batch app %q cannot have a load schedule (no arrival process)", s.Batch.Name)
		}
		if s.ArrivalTimes != nil {
			return fmt.Errorf("sim: batch app %q cannot have arrival times", s.Batch.Name)
		}
		if len(s.SlowWindows) > 0 {
			return fmt.Errorf("sim: batch app %q cannot have slow windows (no requests to inflate)", s.Batch.Name)
		}
	}
	return nil
}

// targetLines resolves the latency-critical target allocation.
func (s AppSpec) targetLines() uint64 {
	if !s.IsLC() {
		return 0
	}
	if s.TargetLines > 0 {
		return s.TargetLines
	}
	return s.LC.TargetLines()
}

// requestCount resolves the number of measured requests for a latency-critical
// slot.
func (s AppSpec) requestCount() int {
	if !s.IsLC() {
		return 0
	}
	if s.ArrivalTimes != nil {
		return len(s.ArrivalTimes) - s.ExplicitWarmup
	}
	f := s.RequestFactor
	if f <= 0 {
		f = 1
	}
	n := int(float64(s.LC.Requests) * f)
	if n < 1 {
		n = 1
	}
	return n
}

// warmupCount resolves the number of warmup requests.
func (s AppSpec) warmupCount() int {
	if !s.IsLC() {
		return 0
	}
	if s.ArrivalTimes != nil {
		return s.ExplicitWarmup
	}
	f := s.RequestFactor
	if f <= 0 {
		f = 1
	}
	n := int(float64(s.LC.WarmupRequests) * f)
	if n < 0 {
		n = 0
	}
	return n
}

// roiInstructions resolves the batch region of interest.
func (s AppSpec) roiInstructions() uint64 {
	if !s.IsLC() {
		if s.ROIInstructions > 0 {
			return s.ROIInstructions
		}
		return s.Batch.ROIInstructions
	}
	return 0
}

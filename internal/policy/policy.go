// Package policy defines the interface between the simulated CMP and the
// cache-management runtime, and implements the baseline partitioning policies
// the paper compares against: unpartitioned LRU, utility-based cache
// partitioning (UCP), StaticLC and OnOff (Section 4). The paper's own policy,
// Ubik, lives in internal/core and implements the same interface.
package policy

import "repro/internal/monitor"

// Resize asks the runtime to set one application's partition target.
type Resize struct {
	// App is the application (and partition) index.
	App int
	// Target is the new target allocation in lines.
	Target uint64
}

// View is the read-only window a policy has onto the machine: exactly the
// state the paper's software runtime can observe through UMONs, MLP profilers
// and performance counters. Policies cannot see simulator internals (cache
// contents, future arrivals), so they cannot cheat.
type View interface {
	// NumApps returns the number of applications (= partitions).
	NumApps() int
	// TotalLines returns the LLC capacity in lines.
	TotalLines() uint64
	// IsLatencyCritical reports whether the application is latency-critical.
	IsLatencyCritical(app int) bool
	// Active reports whether a latency-critical application currently has work
	// (a request in service or queued). Batch applications are always active.
	Active(app int) bool
	// MissCurve returns the application's miss curve measured by its UMON over
	// the last reconfiguration window, interpolated to fine granularity.
	MissCurve(app int) monitor.MissCurve
	// MissPenalty returns M, the measured average exposed cycles per miss.
	MissPenalty(app int) float64
	// CyclesPerAccessHit returns c, the measured average cycles between LLC
	// accesses excluding miss stalls.
	CyclesPerAccessHit(app int) float64
	// CurrentTarget returns the application's current partition target.
	CurrentTarget(app int) uint64
	// LCTargetLines returns a latency-critical application's configured target
	// allocation (the "runs alone on a 2 MB LLC" size); 0 for batch apps.
	LCTargetLines(app int) uint64
	// DeadlineCycles returns a latency-critical application's deadline: the
	// tail latency it must not exceed (its 95th-percentile latency at the
	// target size); 0 for batch apps.
	DeadlineCycles(app int) uint64
	// IdleFraction returns the fraction of the last reconfiguration window a
	// latency-critical application spent idle (0 for batch apps).
	IdleFraction(app int) float64
	// PartitionMisses returns the cumulative number of actual misses the
	// application's partition has suffered.
	PartitionMisses(app int) uint64
	// UMONSnapshot returns the application's current UMON counters, for
	// windowed queries.
	UMONSnapshot(app int) monitor.UMONSnapshot
	// UMONMissesAtSince estimates how many misses the application would have
	// incurred since the snapshot at the given allocation.
	UMONMissesAtSince(app int, since monitor.UMONSnapshot, lines uint64) float64
	// Now returns the current simulated time in cycles.
	Now() uint64
}

// Policy is a cache-management runtime. The simulator invokes it at periodic
// reconfiguration intervals and on the events the paper's runtime receives
// (latency-critical applications calling in when they go idle or active, the
// de-boosting interrupt check, request completions). Every hook may return
// partition retargets to apply immediately; nil means no change.
type Policy interface {
	// Name identifies the policy in results tables.
	Name() string
	// Reconfigure is called every reconfiguration interval (50 ms in the
	// paper) with fresh monitoring data.
	Reconfigure(v View) []Resize
	// OnActive is called when a latency-critical application transitions from
	// idle to active.
	OnActive(app int, v View) []Resize
	// OnIdle is called when a latency-critical application runs out of
	// requests and goes idle.
	OnIdle(app int, v View) []Resize
	// OnLCCheck is called periodically while a latency-critical application is
	// processing requests, so policies can emulate hardware triggers such as
	// Ubik's accurate de-boosting interrupt.
	OnLCCheck(app int, v View) []Resize
	// OnRequestComplete is called when a latency-critical request finishes,
	// with its total latency in cycles.
	OnRequestComplete(app int, latencyCycles uint64, v View) []Resize
	// Clone returns a deep copy of the policy's runtime state: the copy must
	// behave exactly like the original from this point on, and mutations
	// through either copy must not be observable through the other. It now
	// serves only sim.Checkpoint's re-run, which clones the policy as the
	// simulator received it.
	Clone() Policy
}

// Base provides no-op implementations of the event hooks so that simple
// policies only implement what they need.
type Base struct{}

// OnActive implements Policy.
func (Base) OnActive(int, View) []Resize { return nil }

// OnIdle implements Policy.
func (Base) OnIdle(int, View) []Resize { return nil }

// OnLCCheck implements Policy.
func (Base) OnLCCheck(int, View) []Resize { return nil }

// OnRequestComplete implements Policy.
func (Base) OnRequestComplete(int, uint64, View) []Resize { return nil }

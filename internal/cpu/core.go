// Package cpu provides the analytic core-timing models used by the simulator.
// The paper evaluates both out-of-order (Westmere-like) and simple in-order
// cores; what matters for cache-partitioning policies is how much of a miss's
// latency the core actually stalls for, which these models capture with the
// same c / M decomposition that Ubik's transient analysis uses (Section 5.1):
// an access costs c cycles of compute plus, on a miss, an exposed penalty M.
package cpu

import "fmt"

// Kind selects the core model.
type Kind int

const (
	// OutOfOrder models a Westmere-like OOO core: overlapping misses share
	// their latency, so the exposed penalty per miss is MemLatency divided by
	// the application's achieved memory-level parallelism.
	OutOfOrder Kind = iota
	// InOrder models a simple stall-on-miss core (IPC=1 except on misses):
	// every miss exposes the full memory latency.
	InOrder
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case OutOfOrder:
		return "OOO"
	case InOrder:
		return "InOrder"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Model is an analytic core-timing model with one hit latency per cache
// level. The latencies are total (from the core), not incremental per level,
// matching Table 2's convention: an access served by a deeper level costs
// that level's full latency.
type Model struct {
	// Kind selects OOO or in-order behaviour.
	Kind Kind
	// MemLatencyCycles is the main-memory access latency (Table 2: 200 cycles).
	MemLatencyCycles float64
	// L3HitLatencyCycles is the LLC hit latency (Table 2: 20 cycles).
	L3HitLatencyCycles float64
	// L2HitLatencyCycles is the private L2 hit latency (Table 2: 10 cycles).
	// Only exercised when the simulated hierarchy has private levels.
	L2HitLatencyCycles float64
	// L1HitLatencyCycles is the private L1 hit latency (Table 2: 4 cycles).
	L1HitLatencyCycles float64
}

// DefaultModel returns the Table 2 configuration for the given core kind.
func DefaultModel(kind Kind) Model {
	return Model{
		Kind: kind, MemLatencyCycles: 200, L3HitLatencyCycles: 20,
		L2HitLatencyCycles: 10, L1HitLatencyCycles: 4,
	}
}

// Validate reports configuration problems. Beyond positivity, it rejects
// inverted latency orderings: each level must be at least as fast as the
// level below it, and no hit may be as slow as a memory access.
func (m Model) Validate() error {
	if m.MemLatencyCycles <= 0 {
		return fmt.Errorf("cpu: memory latency must be positive, got %v", m.MemLatencyCycles)
	}
	for _, l := range []struct {
		name  string
		value float64
	}{
		{"L1", m.L1HitLatencyCycles}, {"L2", m.L2HitLatencyCycles}, {"L3", m.L3HitLatencyCycles},
	} {
		if l.value < 0 {
			return fmt.Errorf("cpu: %s hit latency must be non-negative, got %v", l.name, l.value)
		}
	}
	if m.L1HitLatencyCycles > m.L2HitLatencyCycles {
		return fmt.Errorf("cpu: inverted latency ordering: L1 hit (%v) slower than L2 hit (%v)",
			m.L1HitLatencyCycles, m.L2HitLatencyCycles)
	}
	if m.L2HitLatencyCycles > m.L3HitLatencyCycles {
		return fmt.Errorf("cpu: inverted latency ordering: L2 hit (%v) slower than L3 hit (%v)",
			m.L2HitLatencyCycles, m.L3HitLatencyCycles)
	}
	if m.L3HitLatencyCycles >= m.MemLatencyCycles {
		return fmt.Errorf("cpu: inverted latency ordering: L3 hit (%v) not faster than memory (%v)",
			m.L3HitLatencyCycles, m.MemLatencyCycles)
	}
	return nil
}

// LevelLatency returns the raw (unscaled) latency of an access served at the
// given hierarchy level: 1 = L1, 2 = L2, 3 = LLC, anything else = memory.
func (m Model) LevelLatency(level int) float64 {
	switch level {
	case 1:
		return m.L1HitLatencyCycles
	case 2:
		return m.L2HitLatencyCycles
	case 3:
		return m.L3HitLatencyCycles
	default:
		return m.MemLatencyCycles
	}
}

// MissPenalty returns M, the exposed cycles per LLC miss for an application
// with the given memory-level parallelism.
func (m Model) MissPenalty(appMLP float64) float64 {
	if appMLP < 1 {
		appMLP = 1
	}
	switch m.Kind {
	case InOrder:
		return m.MemLatencyCycles
	default:
		return m.MemLatencyCycles / appMLP
	}
}

// HitPenalty returns the exposed cycles added by an LLC hit. OOO cores hide
// most of the (short) hit latency; in-order cores expose it fully.
func (m Model) HitPenalty(appMLP float64) float64 {
	if appMLP < 1 {
		appMLP = 1
	}
	switch m.Kind {
	case InOrder:
		return m.L3HitLatencyCycles
	default:
		return m.L3HitLatencyCycles / appMLP
	}
}

// ComputeCyclesPerAccess returns c, the compute cycles between consecutive LLC
// accesses if every access hit, for an application with the given base CPI
// (cycles per instruction with a perfect LLC) and APKI.
//
// For the in-order model the base CPI is clamped to at least 1 (the paper's
// simple cores execute one instruction per cycle except on misses).
func (m Model) ComputeCyclesPerAccess(baseCPI, apki float64) float64 {
	if apki <= 0 {
		return 0
	}
	cpi := baseCPI
	if m.Kind == InOrder && cpi < 1 {
		cpi = 1
	}
	return cpi * 1000 / apki
}

// AccessCyclesAtLevel returns the total cycles one access epoch consumes when
// the access is served at the given hierarchy level (1 = L1 hit, 2 = L2 hit,
// 3 = LLC hit, 0 = memory): the compute time between accesses plus the
// exposed level latency. OOO cores hide latency in proportion to the
// application's MLP; in-order cores expose it fully. At levels 3 and 0 this
// is c plus HitPenalty and MissPenalty respectively.
func (m Model) AccessCyclesAtLevel(baseCPI, apki, appMLP float64, level int) float64 {
	c := m.ComputeCyclesPerAccess(baseCPI, apki)
	lat := m.LevelLatency(level)
	if m.Kind == InOrder {
		return c + lat
	}
	if appMLP < 1 {
		appMLP = 1
	}
	return c + lat/appMLP
}

// PerfCounters accumulates the architectural counters the Ubik runtime reads:
// instructions, cycles, demand accesses, LLC accesses and misses, and private-
// level hits. They are windowed by subtraction, like UMON snapshots.
//
// With private levels in front of the LLC, DemandAccesses counts every access
// the core issues while LLCAccesses counts only the filtered stream that
// reaches the shared cache; on a flat machine (no private levels) the two are
// equal.
type PerfCounters struct {
	Instructions   uint64
	Cycles         uint64
	DemandAccesses uint64
	LLCAccesses    uint64
	LLCMisses      uint64
	L1Hits         uint64
	L2Hits         uint64
}

// AddAtLevel accumulates the counters from one access epoch served at the
// given hierarchy level (1 = L1, 2 = L2, 3 = LLC, 0 = memory).
func (p *PerfCounters) AddAtLevel(instructions, cycles uint64, level int) {
	p.Instructions += instructions
	p.Cycles += cycles
	p.DemandAccesses++
	switch level {
	case 1:
		p.L1Hits++
	case 2:
		p.L2Hits++
	case 3:
		p.LLCAccesses++
	default:
		p.LLCAccesses++
		p.LLCMisses++
	}
}

// Sub returns the counters accumulated since an earlier snapshot.
func (p PerfCounters) Sub(since PerfCounters) PerfCounters {
	return PerfCounters{
		Instructions:   p.Instructions - since.Instructions,
		Cycles:         p.Cycles - since.Cycles,
		DemandAccesses: p.DemandAccesses - since.DemandAccesses,
		LLCAccesses:    p.LLCAccesses - since.LLCAccesses,
		LLCMisses:      p.LLCMisses - since.LLCMisses,
		L1Hits:         p.L1Hits - since.L1Hits,
		L2Hits:         p.L2Hits - since.L2Hits,
	}
}

// IPC returns instructions per cycle over the counter window.
func (p PerfCounters) IPC() float64 {
	if p.Cycles == 0 {
		return 0
	}
	return float64(p.Instructions) / float64(p.Cycles)
}

// MissRate returns LLC misses per access over the counter window.
func (p PerfCounters) MissRate() float64 {
	if p.LLCAccesses == 0 {
		return 0
	}
	return float64(p.LLCMisses) / float64(p.LLCAccesses)
}

// APKI returns LLC accesses per thousand instructions over the window.
func (p PerfCounters) APKI() float64 {
	if p.Instructions == 0 {
		return 0
	}
	return float64(p.LLCAccesses) * 1000 / float64(p.Instructions)
}

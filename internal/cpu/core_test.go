package cpu

import (
	"math"
	"testing"
)

func TestKindString(t *testing.T) {
	if OutOfOrder.String() != "OOO" || InOrder.String() != "InOrder" {
		t.Errorf("kind strings wrong")
	}
	if Kind(42).String() == "" {
		t.Errorf("unknown kind should still stringify")
	}
}

func TestDefaultModelAndValidate(t *testing.T) {
	for _, k := range []Kind{OutOfOrder, InOrder} {
		m := DefaultModel(k)
		if err := m.Validate(); err != nil {
			t.Errorf("default %v model invalid: %v", k, err)
		}
		if m.MemLatencyCycles != 200 || m.L3HitLatencyCycles != 20 {
			t.Errorf("default %v model should match Table 2", k)
		}
	}
	bad := Model{Kind: OutOfOrder, MemLatencyCycles: 0}
	if err := bad.Validate(); err == nil {
		t.Errorf("zero memory latency should be invalid")
	}
	bad2 := Model{Kind: OutOfOrder, MemLatencyCycles: 100, L3HitLatencyCycles: -1}
	if err := bad2.Validate(); err == nil {
		t.Errorf("negative hit latency should be invalid")
	}
}

func TestValidateRejectsInvertedLatencyOrderings(t *testing.T) {
	// An LLC hit as slow as (or slower than) a memory access used to pass
	// validation; it and every other inverted per-level ordering must be
	// rejected.
	cases := []struct {
		name string
		m    Model
	}{
		{"L3 == mem", Model{MemLatencyCycles: 200, L3HitLatencyCycles: 200}},
		{"L3 > mem", Model{MemLatencyCycles: 200, L3HitLatencyCycles: 250}},
		{"L2 > L3", Model{MemLatencyCycles: 200, L3HitLatencyCycles: 20, L2HitLatencyCycles: 30, L1HitLatencyCycles: 4}},
		{"L1 > L2", Model{MemLatencyCycles: 200, L3HitLatencyCycles: 20, L2HitLatencyCycles: 10, L1HitLatencyCycles: 15}},
		{"negative L1", Model{MemLatencyCycles: 200, L3HitLatencyCycles: 20, L1HitLatencyCycles: -1}},
		{"negative L2", Model{MemLatencyCycles: 200, L3HitLatencyCycles: 20, L2HitLatencyCycles: -1}},
	}
	for _, c := range cases {
		if err := c.m.Validate(); err == nil {
			t.Errorf("%s should be invalid", c.name)
		}
	}
	// Equal adjacent hit latencies are fine (only hit-vs-memory is strict).
	flatish := Model{MemLatencyCycles: 200, L3HitLatencyCycles: 20, L2HitLatencyCycles: 20, L1HitLatencyCycles: 20}
	if err := flatish.Validate(); err != nil {
		t.Errorf("equal hit latencies should be valid: %v", err)
	}
	// The legacy two-latency form (zero L1/L2) stays valid.
	legacy := Model{MemLatencyCycles: 200, L3HitLatencyCycles: 20}
	if err := legacy.Validate(); err != nil {
		t.Errorf("legacy two-latency model should be valid: %v", err)
	}
}

func TestAccessCyclesAtLevel(t *testing.T) {
	for _, k := range []Kind{OutOfOrder, InOrder} {
		m := DefaultModel(k)
		// Level 3 matches the flat hit cost, level 0 the flat miss cost.
		if got, want := m.AccessCyclesAtLevel(0.7, 10, 2, 3), m.AccessCycles(0.7, 10, 2, false); got != want {
			t.Errorf("%v: LLC-level cycles %v != flat hit cycles %v", k, got, want)
		}
		if got, want := m.AccessCyclesAtLevel(0.7, 10, 2, 0), m.AccessCycles(0.7, 10, 2, true); got != want {
			t.Errorf("%v: memory-level cycles %v != flat miss cycles %v", k, got, want)
		}
		// Deeper levels cost strictly more under Table 2 latencies.
		prev := 0.0
		for _, level := range []int{1, 2, 3, 0} {
			c := m.AccessCyclesAtLevel(0.7, 10, 2, level)
			if c <= prev {
				t.Errorf("%v: level %d cycles %v not above previous %v", k, level, c, prev)
			}
			prev = c
		}
	}
	// MLP below 1 clamps on OOO cores.
	m := DefaultModel(OutOfOrder)
	if got, want := m.AccessCyclesAtLevel(0.7, 10, 0.25, 1), m.AccessCyclesAtLevel(0.7, 10, 1, 1); got != want {
		t.Errorf("sub-1 MLP should clamp: %v != %v", got, want)
	}
	if got := m.LevelLatency(1); got != 4 {
		t.Errorf("L1 latency = %v, want 4", got)
	}
	if got := m.LevelLatency(7); got != 200 {
		t.Errorf("unknown level should cost a memory access, got %v", got)
	}
}

func TestPerfCountersAtLevel(t *testing.T) {
	var p PerfCounters
	p.AddAtLevel(100, 54, 1)  // L1 hit
	p.AddAtLevel(100, 60, 2)  // L2 hit
	p.AddAtLevel(100, 70, 3)  // LLC hit
	p.AddAtLevel(100, 170, 0) // memory
	if p.DemandAccesses != 4 || p.L1Hits != 1 || p.L2Hits != 1 || p.LLCAccesses != 2 || p.LLCMisses != 1 {
		t.Errorf("per-level counters wrong: %+v", p)
	}
	snap := p
	p.AddAtLevel(100, 54, 1)
	d := p.Sub(snap)
	if d.DemandAccesses != 1 || d.L1Hits != 1 || d.LLCAccesses != 0 {
		t.Errorf("windowed per-level counters wrong: %+v", d)
	}
	// The flat Add counts every access as a demand access reaching the LLC.
	var flat PerfCounters
	flat.Add(100, 70, false)
	if flat.DemandAccesses != 1 || flat.LLCAccesses != 1 || flat.L1Hits+flat.L2Hits != 0 {
		t.Errorf("flat Add counters wrong: %+v", flat)
	}
}

func TestMissPenalty(t *testing.T) {
	ooo := DefaultModel(OutOfOrder)
	ino := DefaultModel(InOrder)
	// OOO divides the latency by the application's MLP.
	if got := ooo.MissPenalty(4); math.Abs(got-50) > 1e-9 {
		t.Errorf("OOO MissPenalty(4) = %v, want 50", got)
	}
	// In-order always exposes the full latency.
	if got := ino.MissPenalty(4); math.Abs(got-200) > 1e-9 {
		t.Errorf("InOrder MissPenalty(4) = %v, want 200", got)
	}
	// MLP below 1 clamps.
	if got := ooo.MissPenalty(0.5); math.Abs(got-200) > 1e-9 {
		t.Errorf("MLP < 1 should clamp to 1: got %v", got)
	}
	// The in-order penalty is never smaller than the OOO penalty.
	for _, mlp := range []float64{1, 2, 4, 8} {
		if ino.MissPenalty(mlp) < ooo.MissPenalty(mlp) {
			t.Errorf("in-order cores should be at least as exposed to misses as OOO")
		}
	}
}

func TestHitPenalty(t *testing.T) {
	ooo := DefaultModel(OutOfOrder)
	ino := DefaultModel(InOrder)
	if got := ooo.HitPenalty(4); math.Abs(got-5) > 1e-9 {
		t.Errorf("OOO HitPenalty(4) = %v, want 5", got)
	}
	if got := ino.HitPenalty(4); math.Abs(got-20) > 1e-9 {
		t.Errorf("InOrder HitPenalty = %v, want 20", got)
	}
	if got := ooo.HitPenalty(0); math.Abs(got-20) > 1e-9 {
		t.Errorf("zero MLP should clamp to 1: got %v", got)
	}
}

func TestComputeCyclesPerAccess(t *testing.T) {
	ooo := DefaultModel(OutOfOrder)
	ino := DefaultModel(InOrder)
	// CPI 0.5, APKI 10: 1000/10 = 100 instructions per access, 50 cycles.
	if got := ooo.ComputeCyclesPerAccess(0.5, 10); math.Abs(got-50) > 1e-9 {
		t.Errorf("OOO compute cycles = %v, want 50", got)
	}
	// In-order clamps CPI to at least 1.
	if got := ino.ComputeCyclesPerAccess(0.5, 10); math.Abs(got-100) > 1e-9 {
		t.Errorf("InOrder compute cycles = %v, want 100", got)
	}
	if got := ooo.ComputeCyclesPerAccess(1, 0); got != 0 {
		t.Errorf("zero APKI should give 0, got %v", got)
	}
}

func TestAccessCycles(t *testing.T) {
	m := DefaultModel(OutOfOrder)
	hit := m.AccessCycles(1.0, 10, 2, false)
	miss := m.AccessCycles(1.0, 10, 2, true)
	if miss <= hit {
		t.Errorf("a miss must cost more than a hit: hit=%v miss=%v", hit, miss)
	}
	if math.Abs(hit-(100+10)) > 1e-9 {
		t.Errorf("hit cycles = %v, want 110", hit)
	}
	if math.Abs(miss-(100+100)) > 1e-9 {
		t.Errorf("miss cycles = %v, want 200", miss)
	}
}

func TestInOrderMoreSensitiveToMisses(t *testing.T) {
	// The Figure 11 premise: the relative cost of a miss is higher on an
	// in-order core, for any application parameters.
	ooo := DefaultModel(OutOfOrder)
	ino := DefaultModel(InOrder)
	for _, mlp := range []float64{1.5, 2, 4} {
		oooRatio := ooo.AccessCycles(0.7, 10, mlp, true) / ooo.AccessCycles(0.7, 10, mlp, false)
		inoRatio := ino.AccessCycles(0.7, 10, mlp, true) / ino.AccessCycles(0.7, 10, mlp, false)
		if inoRatio <= oooRatio {
			t.Errorf("in-order miss/hit cost ratio (%v) should exceed OOO's (%v) at MLP %v", inoRatio, oooRatio, mlp)
		}
	}
}

func TestPerfCounters(t *testing.T) {
	var p PerfCounters
	p.Add(100, 70, false)
	p.Add(100, 170, true)
	if p.Instructions != 200 || p.Cycles != 240 || p.LLCAccesses != 2 || p.LLCMisses != 1 {
		t.Errorf("counters wrong: %+v", p)
	}
	if math.Abs(p.IPC()-200.0/240.0) > 1e-9 {
		t.Errorf("IPC wrong: %v", p.IPC())
	}
	if math.Abs(p.MissRate()-0.5) > 1e-9 {
		t.Errorf("MissRate wrong: %v", p.MissRate())
	}
	if math.Abs(p.APKI()-10) > 1e-9 {
		t.Errorf("APKI wrong: %v", p.APKI())
	}
	snap := p
	p.Add(100, 100, false)
	d := p.Sub(snap)
	if d.Instructions != 100 || d.Cycles != 100 || d.LLCAccesses != 1 || d.LLCMisses != 0 {
		t.Errorf("Sub wrong: %+v", d)
	}
	var empty PerfCounters
	if empty.IPC() != 0 || empty.MissRate() != 0 || empty.APKI() != 0 {
		t.Errorf("empty counters should report zero rates")
	}
}

package monitor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMissCurveAtInterpolation(t *testing.T) {
	c := MissCurve{TotalLines: 100, Accesses: 100, Misses: []float64{100, 50, 0}}
	cases := []struct {
		lines uint64
		want  float64
	}{
		{0, 100}, {25, 75}, {50, 50}, {75, 25}, {100, 0}, {200, 0},
	}
	for _, tc := range cases {
		if got := c.At(tc.lines); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("At(%d) = %v, want %v", tc.lines, got, tc.want)
		}
	}
	if p := c.MissProbAt(50); math.Abs(p-0.5) > 1e-9 {
		t.Errorf("MissProbAt(50) = %v, want 0.5", p)
	}
	if h := c.HitsAt(50); math.Abs(h-50) > 1e-9 {
		t.Errorf("HitsAt(50) = %v, want 50", h)
	}
}

func TestMissCurveEdgeCases(t *testing.T) {
	var empty MissCurve
	if empty.At(10) != 0 {
		t.Errorf("empty curve At should be 0")
	}
	if empty.MissProbAt(10) != 1 {
		t.Errorf("empty curve MissProbAt should be 1 (no information => assume miss)")
	}
	single := MissCurve{TotalLines: 10, Accesses: 5, Misses: []float64{5}}
	if single.At(3) != 5 {
		t.Errorf("single point curve should be flat")
	}
	// HitsAt clamps at zero even if the curve is inconsistent.
	weird := MissCurve{TotalLines: 10, Accesses: 1, Misses: []float64{5, 5}}
	if weird.HitsAt(0) != 0 {
		t.Errorf("HitsAt should clamp to 0")
	}
	if weird.MissProbAt(0) != 1 {
		t.Errorf("MissProbAt should clamp to 1")
	}
}

func TestMissCurveInterpolateAndScale(t *testing.T) {
	c := MissCurve{TotalLines: 100, Accesses: 100, Misses: []float64{100, 60, 30, 10, 0}}
	fine := c.Interpolate(256)
	if fine.Points() != 256 {
		t.Fatalf("Interpolate points = %d, want 256", fine.Points())
	}
	for _, lines := range []uint64{0, 10, 37, 50, 80, 100} {
		if math.Abs(fine.At(lines)-c.At(lines)) > 1.0 {
			t.Errorf("interpolated curve diverges at %d: %v vs %v", lines, fine.At(lines), c.At(lines))
		}
	}
	if got := c.Interpolate(1).Points(); got != 2 {
		t.Errorf("Interpolate should clamp to 2 points, got %d", got)
	}
	s := c.Scale(2)
	if s.Accesses != 200 || s.Misses[0] != 200 {
		t.Errorf("Scale(2) wrong: %+v", s)
	}
	emptyInterp := MissCurve{TotalLines: 10}.Interpolate(4)
	if emptyInterp.Points() != 4 {
		t.Errorf("interpolating empty curve should still return requested points")
	}
}

func TestMissCurveValidateAndMonotonic(t *testing.T) {
	good := MissCurve{TotalLines: 10, Accesses: 10, Misses: []float64{10, 5, 1}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid curve rejected: %v", err)
	}
	bad := []MissCurve{
		{TotalLines: 10, Misses: []float64{1}},
		{TotalLines: 10, Accesses: -1, Misses: []float64{1, 1}},
		{TotalLines: 10, Accesses: 1, Misses: []float64{1, math.NaN()}},
		{TotalLines: 10, Accesses: 1, Misses: []float64{1, -2}},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid curve accepted", i)
		}
	}
}

func TestFlatCurve(t *testing.T) {
	c := FlatCurve(100, 8, 50, 80)
	if c.Points() != 8 {
		t.Errorf("points = %d, want 8", c.Points())
	}
	if c.At(0) != 50 || c.At(100) != 50 {
		t.Errorf("flat curve should be constant")
	}
	if FlatCurve(10, 0, 1, 1).Points() != 2 {
		t.Errorf("flat curve should clamp points to 2")
	}
}

func TestUMONConstruction(t *testing.T) {
	if _, err := NewUMON(0, 32, 8); err == nil {
		t.Errorf("zero model lines should fail")
	}
	if _, err := NewUMON(1024, 0, 8); err == nil {
		t.Errorf("zero ways should fail")
	}
	if _, err := NewUMON(1024, 32, 0); err == nil {
		t.Errorf("zero sample sets should fail")
	}
	u, err := NewUMON(1024, 32, 1000) // more sample sets than total sets: clamp
	if err != nil {
		t.Fatal(err)
	}
	if uint64(u.sampleSets) != u.totalSets {
		t.Errorf("sample sets should clamp to the %d total sets, got %d", u.totalSets, u.sampleSets)
	}
	if u.Ways() != 32 {
		t.Errorf("Ways = %d, want 32", u.Ways())
	}
}

// nonIncreasing reports whether the curve never rises with allocation — true
// of LRU-managed caches by inclusion, up to float noise.
func nonIncreasing(m MissCurve) bool {
	for i := 1; i < len(m.Misses); i++ {
		if m.Misses[i] > m.Misses[i-1]+1e-9 {
			return false
		}
	}
	return true
}

func TestUMONSmallWorkingSetCurve(t *testing.T) {
	// A working set of 64 lines accessed round-robin: the miss curve should
	// show ~0 misses once the allocation exceeds 64 lines and ~all misses
	// with a tiny allocation.
	u, err := NewUMON(2048, 32, 64) // full sampling for an exact curve
	if err != nil {
		t.Fatal(err)
	}
	if uint64(u.sampleSets) != u.totalSets {
		t.Fatalf("expected full sampling for this configuration, got %d of %d sets", u.sampleSets, u.totalSets)
	}
	for pass := 0; pass < 50; pass++ {
		for a := uint64(0); a < 64; a++ {
			u.Access(a + 1_000_000)
		}
	}
	curve := u.MissCurve(UMONSnapshot{})
	if err := curve.Validate(); err != nil {
		t.Fatalf("curve invalid: %v", err)
	}
	total := curve.Accesses
	if total != 50*64 {
		t.Fatalf("accesses = %v, want %v", total, 50*64)
	}
	// At full allocation, only compulsory misses (64) remain.
	if curve.At(2048) > 2*64 {
		t.Errorf("misses at full allocation = %v, want about 64", curve.At(2048))
	}
	// With no allocation, everything misses.
	if curve.At(0) != total {
		t.Errorf("misses at zero allocation = %v, want %v", curve.At(0), total)
	}
	// The curve should be (weakly) non-increasing.
	if !nonIncreasing(curve) {
		t.Errorf("miss curve should be non-increasing for an LRU-friendly pattern")
	}
}

func TestUMONStreamingCurveFlat(t *testing.T) {
	u, _ := NewUMON(2048, 32, 64)
	for a := uint64(0); a < 20000; a++ {
		u.Access(a)
	}
	curve := u.MissCurve(UMONSnapshot{})
	// Streaming: misses barely decrease with allocation.
	if curve.At(2048) < 0.9*curve.At(0) {
		t.Errorf("streaming miss curve should be nearly flat: %v -> %v", curve.At(0), curve.At(2048))
	}
}

func TestUMONSampledCurveApproximatesFullCurve(t *testing.T) {
	// A sampled UMON should give roughly the same *normalised* curve as a
	// fully-sampled one for a uniform random working set.
	full, _ := NewUMON(4096, 32, 128) // all sets sampled
	sampled, _ := NewUMON(4096, 32, 16)
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 400000; i++ {
		a := uint64(r.Intn(3000))
		full.Access(a)
		sampled.Access(a)
	}
	cf := full.MissCurve(UMONSnapshot{})
	cs := sampled.MissCurve(UMONSnapshot{})
	for _, frac := range []float64{0.25, 0.5, 0.75, 1.0} {
		lines := uint64(frac * 4096)
		pf := cf.MissProbAt(lines)
		ps := cs.MissProbAt(lines)
		if math.Abs(pf-ps) > 0.12 {
			t.Errorf("sampled curve diverges at %d lines: full=%.3f sampled=%.3f", lines, pf, ps)
		}
	}
}

func TestUMONSnapshotsAndWindows(t *testing.T) {
	u, _ := NewUMON(1024, 16, 64)
	for a := uint64(0); a < 100; a++ {
		u.Access(a % 32)
	}
	snap := u.Snapshot()
	for a := uint64(0); a < 200; a++ {
		u.Access(a % 32)
	}
	if got := u.AccessesSince(snap); got != 200 {
		t.Errorf("AccessesSince = %d, want 200", got)
	}
	if got := u.AccessesSince(UMONSnapshot{}); got != 300 {
		t.Errorf("AccessesSince(zero) = %d, want 300", got)
	}
	// The windowed curve should only cover the 200 post-snapshot accesses.
	curve := u.MissCurve(snap)
	if curve.Accesses != 200 {
		t.Errorf("windowed curve accesses = %v, want 200", curve.Accesses)
	}
	// A 32-line working set in a warm UMON: almost no misses at large sizes.
	if m := u.MissesAtSizeSince(snap, 1024); m > 20 {
		t.Errorf("warm working set should have few misses at full size, got %v", m)
	}
	u.ResetCounters()
	if u.Snapshot().TotalAccesses != 0 {
		t.Errorf("ResetCounters should clear totals")
	}
	// Tags stay warm after a counter reset: immediately hitting again.
	u.Access(1)
	c2 := u.MissCurve(UMONSnapshot{})
	if c2.At(1024) > 0.5 {
		t.Errorf("tags should stay warm across ResetCounters")
	}
}

func TestUMONCurveNonIncreasingProperty(t *testing.T) {
	f := func(seed int64, span uint16) bool {
		u, err := NewUMON(2048, 16, 32)
		if err != nil {
			return false
		}
		r := rand.New(rand.NewSource(seed))
		n := int(span)%3000 + 200
		for i := 0; i < n; i++ {
			u.Access(uint64(r.Intn(500)))
		}
		return nonIncreasing(u.MissCurve(UMONSnapshot{}))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMLPProfiler(t *testing.T) {
	p := NewMLPProfiler(1.0)
	if got := p.AvgMissPenalty(123); got != 123 {
		t.Errorf("fallback not returned: %v", got)
	}
	for i := 0; i < 10; i++ {
		p.RecordMiss(100)
	}
	if got := p.AvgMissPenalty(0); math.Abs(got-100) > 1e-9 {
		t.Errorf("AvgMissPenalty = %v, want 100", got)
	}
	if p.Misses() != 10 {
		t.Errorf("Misses = %d, want 10", p.Misses())
	}
	p.RecordMiss(-50) // clamped to 0: the mean falls to 1000/11, never below
	if got := p.AvgMissPenalty(0); math.Abs(got-1000.0/11) > 1e-9 {
		t.Errorf("negative stalls should clamp to zero, got mean %v", got)
	}
	p.Reset()
	if p.Misses() != 0 || p.AvgMissPenalty(7) != 7 {
		t.Errorf("Reset did not clear")
	}
}

func TestMLPProfilerDecayTracksPhases(t *testing.T) {
	p := NewMLPProfiler(0.99)
	for i := 0; i < 1000; i++ {
		p.RecordMiss(200)
	}
	for i := 0; i < 1000; i++ {
		p.RecordMiss(50)
	}
	// 125 is the undecayed mean of the two phases.
	if decayed := p.AvgMissPenalty(0); decayed < 50 || decayed >= 125 {
		t.Errorf("decayed estimate %v should be close to the recent phase's 50", decayed)
	}
	// Invalid decay factors fall back to no decay.
	if NewMLPProfiler(0).decay != 1 || NewMLPProfiler(2).decay != 1 {
		t.Errorf("invalid decay factors should clamp to 1")
	}
}

func TestReuseProfiler(t *testing.T) {
	r := NewReuseProfiler(DefaultReuseMaxAge)
	r.Record(true, 0)  // same request
	r.Record(true, 1)  // previous request
	r.Record(true, 20) // ancient: lumped into 8+
	r.Record(false, 0) // miss
	b := r.Breakdown()
	if len(b) != DefaultReuseMaxAge+2 {
		t.Fatalf("breakdown length = %d, want %d", len(b), DefaultReuseMaxAge+2)
	}
	if math.Abs(b[0]-0.25) > 1e-9 || math.Abs(b[1]-0.25) > 1e-9 {
		t.Errorf("same/prev request fractions wrong: %v", b)
	}
	if math.Abs(b[DefaultReuseMaxAge]-0.25) > 1e-9 {
		t.Errorf("8+ bucket fraction wrong: %v", b)
	}
	if math.Abs(b[len(b)-1]-0.25) > 1e-9 {
		t.Errorf("miss fraction wrong: %v", b)
	}
	if r.Accesses() != 4 || r.Misses() != 1 {
		t.Errorf("counters wrong")
	}
	r.Reset()
	if r.Accesses() != 0 || r.Misses() != 0 {
		t.Errorf("reset did not clear")
	}
	// Degenerate construction clamps.
	tiny := NewReuseProfiler(0)
	tiny.Record(true, 5)
	if tiny.Breakdown()[1] != 1 {
		t.Errorf("tiny profiler should lump everything into the last hit bucket")
	}
	// Empty breakdown is all zeros.
	empty := NewReuseProfiler(2)
	for _, v := range empty.Breakdown() {
		if v != 0 {
			t.Errorf("empty breakdown should be zero")
		}
	}
}

func TestReuseBreakdownSumsToOne(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		r := NewReuseProfiler(DefaultReuseMaxAge)
		rng := rand.New(rand.NewSource(seed))
		count := int(n)%1000 + 1
		for i := 0; i < count; i++ {
			r.Record(rng.Intn(2) == 0, uint64(rng.Intn(20)))
		}
		sum := 0.0
		for _, v := range r.Breakdown() {
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

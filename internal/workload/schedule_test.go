package workload

import (
	"math"
	"strings"
	"testing"
)

func TestParseScheduleValid(t *testing.T) {
	cases := []struct {
		in   string
		want ScheduleSpec
	}{
		{"", ScheduleSpec{Kind: SchedConstant}},
		{"const", ScheduleSpec{Kind: SchedConstant}},
		{" const ", ScheduleSpec{Kind: SchedConstant}},
		{"burst:at=2e6,dur=1e6,x=4", ScheduleSpec{Kind: SchedBurst, AtCycle: 2_000_000, DurationCycles: 1_000_000, Mult: 4}},
		{"burst:dur=1e6,x=2,period=4e6", ScheduleSpec{Kind: SchedBurst, DurationCycles: 1_000_000, Mult: 2, PeriodCycles: 4_000_000}},
		{"ramp:dur=2e6,to=3", ScheduleSpec{Kind: SchedRamp, DurationCycles: 2_000_000, From: 1, To: 3}},
		{"ramp:at=1e6,dur=2e6,from=0.5,to=2", ScheduleSpec{Kind: SchedRamp, AtCycle: 1_000_000, DurationCycles: 2_000_000, From: 0.5, To: 2}},
		{"diurnal:period=4e6", ScheduleSpec{Kind: SchedDiurnal, PeriodCycles: 4_000_000, Amp: 0.5}},
		{"diurnal:period=4e6,amp=0.25", ScheduleSpec{Kind: SchedDiurnal, PeriodCycles: 4_000_000, Amp: 0.25}},
		{"flash:at=1e6,x=8,decay=5e5", ScheduleSpec{Kind: SchedFlash, AtCycle: 1_000_000, Mult: 8, DecayCycles: 500_000}},
		{"mmpp:x=4,on=1e6,off=4e6", ScheduleSpec{Kind: SchedMMPP, Mult: 4, OnCycles: 1e6, OffCycles: 4e6, Low: 1}},
		{"mmpp:x=4,on=1e6,off=4e6,lo=0.5", ScheduleSpec{Kind: SchedMMPP, Mult: 4, OnCycles: 1e6, OffCycles: 4e6, Low: 0.5}},
	}
	for _, c := range cases {
		got, err := ParseSchedule(c.in)
		if err != nil {
			t.Errorf("ParseSchedule(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseSchedule(%q) = %+v, want %+v", c.in, got, c.want)
		}
		if err := got.Validate(); err != nil {
			t.Errorf("ParseSchedule(%q) produced invalid spec: %v", c.in, err)
		}
		// String must round-trip.
		rt, err := ParseSchedule(got.String())
		if err != nil {
			t.Errorf("reparse of %q (from %q): %v", got.String(), c.in, err)
		} else if rt.String() != got.String() {
			t.Errorf("round trip of %q: %q -> %q", c.in, got.String(), rt.String())
		}
	}
}

func TestParseScheduleRejects(t *testing.T) {
	bad := []string{
		"bogus",
		"burst",                        // missing dur and x
		"burst:x=4",                    // missing dur
		"burst:dur=1e6",                // missing x
		"burst:dur=1e6,x=0",            // zero multiplier
		"burst:dur=1e6,x=1e-4",         // multiplier below the floor
		"burst:dur=1e6,x=-3",           // negative multiplier
		"burst:dur=1e6,x=nan",          // NaN multiplier
		"burst:dur=1e6,x=inf",          // infinite multiplier
		"burst:dur=1e6,x=1e7",          // multiplier above the cap
		"burst:dur=1e6,x=4,wat=1",      // unknown key
		"burst:dur=1e6,x=4,dur=2e6",    // duplicate key
		"burst:dur=1e6,x=4,period=5e5", // burst does not fit the period
		"burst:dur,x=4",                // not key=value
		"burst:dur=zzz,x=4",            // unparseable value
		"burst:at=-1,dur=1e6,x=4",      // negative cycles
		"burst:at=1e17,dur=1e6,x=4",    // cycles beyond the float-exact cap
		"ramp:dur=1e6",                 // missing to
		"ramp:dur=0,to=2",              // zero duration
		"ramp:dur=1e6,from=0,to=2",     // zero endpoint
		"diurnal",                      // missing period
		"diurnal:period=1e6,amp=1",     // amp must stay below 1
		"diurnal:period=1e6,amp=-0.1",  // negative amp
		"flash:x=4",                    // missing decay
		"flash:x=4,decay=0",            // zero decay
		"mmpp:x=4,on=1e6",              // missing off
		"mmpp:x=4,on=100,off=1e6",      // dwell below the floor
		"mmpp:x=4,on=1e6,off=1e6,lo=0", // zero low multiplier
	}
	for _, in := range bad {
		if spec, err := ParseSchedule(in); err == nil {
			t.Errorf("ParseSchedule(%q) = %+v, want error", in, spec)
		}
	}
}

func TestScheduleMultiplierShapes(t *testing.T) {
	mult := func(spec ScheduleSpec, t uint64) float64 {
		return spec.NewEval(1).Multiplier(t)
	}

	burst := ScheduleSpec{Kind: SchedBurst, AtCycle: 100, DurationCycles: 50, Mult: 4}
	for _, c := range []struct {
		t    uint64
		want float64
	}{{0, 1}, {99, 1}, {100, 4}, {149, 4}, {150, 1}, {1000, 1}} {
		if got := mult(burst, c.t); got != c.want {
			t.Errorf("burst(%d) = %v, want %v", c.t, got, c.want)
		}
	}

	repeating := burst
	repeating.PeriodCycles = 200
	for _, c := range []struct {
		t    uint64
		want float64
	}{{99, 1}, {100, 4}, {299, 1}, {300, 4}, {349, 4}, {350, 1}} {
		if got := mult(repeating, c.t); got != c.want {
			t.Errorf("repeating burst(%d) = %v, want %v", c.t, got, c.want)
		}
	}

	ramp := ScheduleSpec{Kind: SchedRamp, AtCycle: 100, DurationCycles: 100, From: 1, To: 3}
	for _, c := range []struct {
		t    uint64
		want float64
	}{{0, 1}, {100, 1}, {150, 2}, {200, 3}, {10_000, 3}} {
		if got := mult(ramp, c.t); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("ramp(%d) = %v, want %v", c.t, got, c.want)
		}
	}

	diurnal := ScheduleSpec{Kind: SchedDiurnal, PeriodCycles: 1000, Amp: 0.5}
	if got := mult(diurnal, 0); math.Abs(got-1) > 1e-12 {
		t.Errorf("diurnal(0) = %v, want 1", got)
	}
	if got := mult(diurnal, 250); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("diurnal(quarter) = %v, want 1.5", got)
	}
	if got := mult(diurnal, 750); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("diurnal(three-quarter) = %v, want 0.5", got)
	}

	flash := ScheduleSpec{Kind: SchedFlash, AtCycle: 100, Mult: 9, DecayCycles: 100}
	if got := mult(flash, 99); got != 1 {
		t.Errorf("flash before spike = %v, want 1", got)
	}
	if got := mult(flash, 100); math.Abs(got-9) > 1e-12 {
		t.Errorf("flash at spike = %v, want 9", got)
	}
	mid := mult(flash, 200) // one decay constant later: 1 + 8/e
	if want := 1 + 8/math.E; math.Abs(mid-want) > 1e-9 {
		t.Errorf("flash one decay later = %v, want %v", mid, want)
	}
	if late := mult(flash, 10_000); late < 1 || late > 1.001 {
		t.Errorf("flash long after spike = %v, want ~1", late)
	}
}

func TestScheduleMMPPDeterministicAndBounded(t *testing.T) {
	spec := ScheduleSpec{Kind: SchedMMPP, Mult: 4, OnCycles: 2000, OffCycles: 6000, Low: 1}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	trace := func(seed uint64) []float64 {
		e := spec.NewEval(seed)
		var out []float64
		for t := uint64(0); t < 100_000; t += 500 {
			out = append(out, e.Multiplier(t))
		}
		return out
	}
	a, b := trace(7), trace(7)
	sawHigh, sawLow := false, false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("mmpp trace not reproducible at step %d: %v vs %v", i, a[i], b[i])
		}
		switch a[i] {
		case 4:
			sawHigh = true
		case 1:
			sawLow = true
		default:
			t.Fatalf("mmpp multiplier %v is neither state", a[i])
		}
	}
	if !sawHigh || !sawLow {
		t.Errorf("mmpp should visit both states over 100k cycles (high=%v low=%v)", sawHigh, sawLow)
	}
	c := trace(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Errorf("different seeds should give different mmpp dwell sequences")
	}
}

// TestModulatedConstantMatchesPoisson pins the constant schedule to the plain
// Poisson process of Section 3.2, written out inline as an independent
// reference: each gap is one exponential draw scaled by the mean, at least one
// cycle, from the draw seed split off the slot seed.
func TestModulatedConstantMatchesPoisson(t *testing.T) {
	const mean = 50_000
	times, err := ArrivalTimes(mean, 99, ScheduleSpec{}, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	ref := NewRand(SplitSeed(99, 7))
	var pt uint64
	for i, mt := range times {
		pt += max(1, uint64(ref.ExpFloat64()*mean))
		if pt != mt {
			t.Fatalf("arrival %d differs: poisson %d vs modulated-const %d", i, pt, mt)
		}
	}
}

// TestModulatedBurstCompressesArrivals checks the rate modulation end to end:
// during a 4x burst the mean gap shrinks by ~4x relative to the surrounding
// steady phases.
func TestModulatedBurstCompressesArrivals(t *testing.T) {
	spec, err := ParseSchedule("burst:at=5e6,dur=5e6,x=4")
	if err != nil {
		t.Fatal(err)
	}
	// About 3,000 arrivals fall before 15M cycles; 10,000 leave ample room.
	times, err := ArrivalTimes(10_000, 42, spec, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if times[len(times)-1] < 15_000_000 {
		t.Fatalf("stream ends at cycle %d, before 15M", times[len(times)-1])
	}
	var inBurst, outBurst, nIn, nOut float64
	var prev uint64
	for _, next := range times {
		if prev >= 15_000_000 {
			break
		}
		gap := float64(next - prev)
		if prev >= 5_000_000 && prev < 10_000_000 {
			inBurst += gap
			nIn++
		} else {
			outBurst += gap
			nOut++
		}
		prev = next
	}
	if nIn < 100 || nOut < 100 {
		t.Fatalf("want plenty of arrivals in both phases, got %v in / %v out", nIn, nOut)
	}
	ratio := (outBurst / nOut) / (inBurst / nIn)
	if ratio < 3 || ratio > 5 {
		t.Errorf("burst should compress gaps ~4x, got %.2fx (in %.0f, out %.0f)", ratio, inBurst/nIn, outBurst/nOut)
	}
}

func TestScheduleStringMentionsKind(t *testing.T) {
	specs := []string{
		"const",
		"burst:at=1e6,dur=1e6,x=2",
		"ramp:dur=1e6,to=2",
		"diurnal:period=1e6",
		"flash:x=3,decay=1e6",
		"mmpp:x=2,on=1e6,off=1e6",
	}
	for _, in := range specs {
		spec, err := ParseSchedule(in)
		if err != nil {
			t.Fatal(err)
		}
		kind, _, _ := strings.Cut(in, ":")
		if !strings.HasPrefix(spec.String(), kind) {
			t.Errorf("String() of %q = %q should start with the kind", in, spec.String())
		}
	}
}

// FuzzParseSchedule is the satellite fuzz target for the -loadsched parser:
// arbitrary input must either return an error or a spec that validates,
// evaluates to finite positive multipliers, and round-trips through String —
// never panic.
func FuzzParseSchedule(f *testing.F) {
	for _, seed := range []string{
		"", "const", "burst:at=2e6,dur=1e6,x=4", "burst:dur=1e6,x=2,period=4e6",
		"ramp:at=1e6,dur=2e6,from=0.5,to=2", "diurnal:period=4e6,amp=0.25",
		"flash:at=1e6,x=8,decay=5e5", "mmpp:x=4,on=1e6,off=4e6,lo=0.5",
		"burst:dur=1e6,x=nan", "x:y=z", ":::", "burst:dur=1e99,x=4", "mmpp:x=inf,on=1,off=1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		spec, err := ParseSchedule(input)
		if err != nil {
			return
		}
		if verr := spec.Validate(); verr != nil {
			t.Fatalf("parsed spec %+v from %q does not validate: %v", spec, input, verr)
		}
		e := spec.NewEval(7)
		var at uint64
		for i := 0; i < 32; i++ {
			m := e.Multiplier(at)
			if math.IsNaN(m) || math.IsInf(m, 0) || m <= 0 {
				t.Fatalf("multiplier %v at t=%d for %q", m, at, input)
			}
			at += 700_001
		}
		rt, err := ParseSchedule(spec.String())
		if err != nil {
			t.Fatalf("String() of %q = %q does not reparse: %v", input, spec.String(), err)
		}
		if rt.String() != spec.String() {
			t.Fatalf("round trip of %q: %q -> %q", input, spec.String(), rt.String())
		}
	})
}

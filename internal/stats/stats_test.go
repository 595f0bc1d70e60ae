package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSampleBasics(t *testing.T) {
	s := NewSample(4)
	if s.Len() != 0 {
		t.Fatalf("new sample should be empty, got %d", s.Len())
	}
	s.AddAll([]float64{4, 1, 3, 2})
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want 4", s.Len())
	}
	if got := s.Mean(); got != 2.5 {
		t.Errorf("Mean = %v, want 2.5", got)
	}
	if got := s.Min(); got != 1 {
		t.Errorf("Min = %v, want 1", got)
	}
	if got := s.Max(); got != 4 {
		t.Errorf("Max = %v, want 4", got)
	}
	if got := s.Sum(); got != 10 {
		t.Errorf("Sum = %v, want 10", got)
	}
}

func TestEmptySample(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Errorf("empty sample summary stats should be 0")
	}
	if _, err := s.Percentile(50); err != ErrEmpty {
		t.Errorf("Percentile on empty sample: want ErrEmpty, got %v", err)
	}
	if got := s.PercentileOrZero(50); got != 0 {
		t.Errorf("PercentileOrZero on empty sample = %v, want 0", got)
	}
	if _, err := s.TailMean(95); err != ErrEmpty {
		t.Errorf("TailMean on empty sample: want ErrEmpty, got %v", err)
	}
	if _, err := s.CDF(10); err != ErrEmpty {
		t.Errorf("CDF on empty sample: want ErrEmpty, got %v", err)
	}
}

func TestPercentile(t *testing.T) {
	s := NewSample(101)
	for i := 0; i <= 100; i++ {
		s.Add(float64(i))
	}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 0}, {50, 50}, {95, 95}, {100, 100}, {-5, 0}, {150, 100},
	}
	for _, c := range cases {
		got, err := s.Percentile(c.p)
		if err != nil {
			t.Fatalf("Percentile(%v) error: %v", c.p, err)
		}
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileInterpolation(t *testing.T) {
	s := NewSample(2)
	s.AddAll([]float64{0, 10})
	got, err := s.Percentile(50)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-5) > 1e-9 {
		t.Errorf("Percentile(50) of {0,10} = %v, want 5", got)
	}
	if orZero := s.PercentileOrZero(50); orZero != got {
		t.Errorf("PercentileOrZero(50) = %v, want Percentile's %v", orZero, got)
	}
}

func TestPercentileInterpolationFractionalRanks(t *testing.T) {
	// Four points: ranks fall between observations at most percentiles, so
	// the closest-ranks interpolation is exercised directly.
	s := NewSample(4)
	s.AddAll([]float64{10, 20, 30, 40})
	cases := []struct {
		p    float64
		want float64
	}{
		{25, 17.5},  // rank 0.75 between 10 and 20
		{50, 25},    // rank 1.5 between 20 and 30
		{75, 32.5},  // rank 2.25 between 30 and 40
		{90, 37},    // rank 2.7
		{100, 40},   // clamps to max
		{0, 10},     // clamps to min
		{33.34, 20}, // rank ~1.0002, nearly exactly on an observation
		{66.67, 30}, // rank ~2.0001
	}
	for _, c := range cases {
		got, err := s.Percentile(c.p)
		if err != nil {
			t.Fatalf("Percentile(%v): %v", c.p, err)
		}
		if math.Abs(got-c.want) > 0.01 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	// A single observation answers every percentile with itself.
	single := NewSample(1)
	single.Add(42)
	for _, p := range []float64{0, 37, 50, 99.99, 100} {
		if got, _ := single.Percentile(p); got != 42 {
			t.Errorf("single-sample Percentile(%v) = %v, want 42", p, got)
		}
	}
	// Duplicates: interpolating between equal neighbours stays exact.
	dup := NewSample(6)
	dup.AddAll([]float64{5, 5, 5, 9, 9, 9})
	if got, _ := dup.Percentile(50); math.Abs(got-7) > 1e-9 {
		t.Errorf("Percentile(50) of {5x3,9x3} = %v, want 7 (midpoint of ranks 2 and 3)", got)
	}
	if got, _ := dup.Percentile(20); got != 5 {
		t.Errorf("Percentile(20) inside the duplicate run = %v, want 5", got)
	}
}

func TestTailMeanEdgeCases(t *testing.T) {
	// Empty sample errors.
	var empty Sample
	if _, err := empty.TailMean(95); err != ErrEmpty {
		t.Errorf("empty TailMean should return ErrEmpty, got %v", err)
	}
	// One observation: any percentile returns it.
	one := NewSample(1)
	one.Add(3)
	for _, p := range []float64{0, 95, 100} {
		if got, err := one.TailMean(p); err != nil || got != 3 {
			t.Errorf("single-sample TailMean(%v) = (%v, %v), want 3", p, got, err)
		}
	}
	// p = 100: the start index clamps to the last observation.
	s := NewSample(4)
	s.AddAll([]float64{1, 2, 3, 4})
	if got, _ := s.TailMean(100); got != 4 {
		t.Errorf("TailMean(100) = %v, want the max 4", got)
	}
	// Negative p clamps to the full mean.
	if got, _ := s.TailMean(-10); math.Abs(got-2.5) > 1e-9 {
		t.Errorf("TailMean(-10) = %v, want the mean 2.5", got)
	}
}

func TestTailMean(t *testing.T) {
	s := NewSample(100)
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	// 95th tail mean over 1..100 = mean of 96..100 = 98.
	got, err := s.TailMean(95)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-98) > 1e-9 {
		t.Errorf("TailMean(95) = %v, want 98", got)
	}
	// TailMean(0) equals the mean.
	got0, _ := s.TailMean(0)
	if math.Abs(got0-s.Mean()) > 1e-9 {
		t.Errorf("TailMean(0) = %v, want mean %v", got0, s.Mean())
	}
}

func TestTailMeanAtLeastPercentile(t *testing.T) {
	// Property: tail mean >= the percentile it starts from, and >= overall mean.
	f := func(raw []float64) bool {
		if len(raw) < 10 {
			return true
		}
		s := NewSample(len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			s.Add(math.Mod(math.Abs(v), 1e6))
		}
		tm, err := s.TailMean(95)
		if err != nil {
			return false
		}
		p, err := s.Percentile(95)
		if err != nil {
			return false
		}
		return tm >= p-1e-9 && tm >= s.Mean()-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCDF(t *testing.T) {
	s := NewSample(1000)
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		s.Add(r.Float64())
	}
	cdf, err := s.CDF(11)
	if err != nil {
		t.Fatal(err)
	}
	if len(cdf) != 11 {
		t.Fatalf("CDF length = %d, want 11", len(cdf))
	}
	for i := 1; i < len(cdf); i++ {
		if cdf[i].Value < cdf[i-1].Value {
			t.Errorf("CDF values not monotonic at %d", i)
		}
		if cdf[i].Fraction < cdf[i-1].Fraction {
			t.Errorf("CDF fractions not monotonic at %d", i)
		}
	}
	if cdf[len(cdf)-1].Fraction != 1 {
		t.Errorf("CDF should end at fraction 1, got %v", cdf[len(cdf)-1].Fraction)
	}
}

func TestWeightedSpeedup(t *testing.T) {
	ws, err := WeightedSpeedup([]float64{1.0, 2.0, 3.0}, []float64{1.0, 1.0, 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ws-2.0) > 1e-9 {
		t.Errorf("WeightedSpeedup = %v, want 2", ws)
	}
	if _, err := WeightedSpeedup(nil, nil); err == nil {
		t.Errorf("expected error on empty input")
	}
	if _, err := WeightedSpeedup([]float64{1}, []float64{1, 2}); err == nil {
		t.Errorf("expected error on mismatched lengths")
	}
	if _, err := WeightedSpeedup([]float64{1}, []float64{0}); err == nil {
		t.Errorf("expected error on zero baseline")
	}
}

func TestDegradation(t *testing.T) {
	if got := Degradation(2, 1); got != 2 {
		t.Errorf("Degradation(2,1) = %v, want 2", got)
	}
	if !math.IsInf(Degradation(1, 0), 1) {
		t.Errorf("Degradation with zero baseline should be +Inf")
	}
}

func TestPercentileMonotonic(t *testing.T) {
	// Property: percentiles are monotonically nondecreasing in p.
	f := func(raw []float64, a, b uint8) bool {
		if len(raw) == 0 {
			return true
		}
		s := NewSample(len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			s.Add(v)
		}
		pa := float64(a % 101) //nolint
		pb := float64(b % 101)
		if pa > pb {
			pa, pb = pb, pa
		}
		va, err1 := s.Percentile(pa)
		vb, err2 := s.Percentile(pb)
		if err1 != nil || err2 != nil {
			return false
		}
		return va <= vb+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

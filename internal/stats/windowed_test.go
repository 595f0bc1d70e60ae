package stats

import (
	"math"
	"slices"
	"testing"
)

func TestWindowedBasics(t *testing.T) {
	// Window 0: 10 observations 1..10; window 2: one observation; window 1
	// stays empty.
	var s Series
	for i := 1; i <= 10; i++ {
		s.Arrivals = append(s.Arrivals, uint64(i*9))
		s.Values = append(s.Values, float64(i))
	}
	s.Arrivals = append(s.Arrivals, 250)
	s.Values = append(s.Values, 42)

	st := WindowStats(100, 95, s)
	if len(st) != 3 {
		t.Fatalf("expected 3 windows (including the empty one), got %d", len(st))
	}
	if st[0].Count != 10 || st[1].Count != 0 || st[2].Count != 1 {
		t.Errorf("counts = %d/%d/%d, want 10/0/1", st[0].Count, st[1].Count, st[2].Count)
	}
	if st[0].StartCycle != 0 || st[0].EndCycle != 100 || st[1].Index != 1 || st[2].StartCycle != 200 {
		t.Errorf("window bounds wrong: %+v", st)
	}
	if math.Abs(st[0].Mean-5.5) > 1e-12 {
		t.Errorf("window 0 mean = %v, want 5.5", st[0].Mean)
	}
	if st[0].P99 < st[0].P95 || st[0].P95 < st[0].Mean {
		t.Errorf("window 0 percentiles out of order: %+v", st[0])
	}
	if st[0].TailMean < st[0].P95 {
		t.Errorf("window 0 tail mean %v below p95 %v", st[0].TailMean, st[0].P95)
	}
	if st[1].Mean != 0 || st[1].P95 != 0 || st[1].P99 != 0 || st[1].TailMean != 0 {
		t.Errorf("empty window should be all zeros: %+v", st[1])
	}
	if st[2].Mean != 42 || st[2].P95 != 42 || st[2].P99 != 42 {
		t.Errorf("single-observation window should report the value: %+v", st[2])
	}
}

// TestWindowedEmpty: series that start late or stop early
// still produce windows from 0 through the last observation, so two runs'
// tables line up row by row.
func TestWindowedEmpty(t *testing.T) {
	late := Series{Arrivals: []uint64{350}, Values: []float64{7}}
	st := WindowStats(100, 95, late)
	if len(st) != 4 {
		t.Fatalf("want windows 0..3, got %d", len(st))
	}
	for i, w := range st[:3] {
		if w.Count != 0 || w.Index != uint64(i) || w.StartCycle != uint64(i)*100 {
			t.Errorf("leading window %d should be empty and in place: %+v", i, w)
		}
	}
	if got := WindowStats(100, 95); len(got) != 0 {
		t.Errorf("no series should produce no windows, got %+v", got)
	}
	if got := WindowStats(100, 95, Series{}); len(got) != 0 {
		t.Errorf("an empty series should produce no windows, got %+v", got)
	}
}

// TestWindowedFoldsPastMaxWindows: an arrival beyond the window cap lands
// in the last window instead of growing the table.
func TestWindowedFoldsPastMaxWindows(t *testing.T) {
	s := Series{Arrivals: []uint64{0, 1 << 62}, Values: []float64{1, 2}}
	st := WindowStats(1024, 95, s)
	if len(st) != maxWindows {
		t.Fatalf("want %d windows, got %d", maxWindows, len(st))
	}
	if last := st[maxWindows-1]; last.Count != 1 || last.Mean != 2 {
		t.Errorf("the far arrival should fold into the last window: %+v", last)
	}
	if p := PoolRange(1024, maxWindows-1, maxWindows, s); p.Len() != 1 || p.Max() != 2 {
		t.Errorf("PoolRange should fold the same way: %d values, max %v", p.Len(), p.Max())
	}
}

func TestWindowedZeroWidthClamped(t *testing.T) {
	st := WindowStats(0, 95, Series{Arrivals: []uint64{3}, Values: []float64{7}})
	if len(st) != 4 || st[3].Count != 1 {
		t.Errorf("clamped windowing misplaced the observation: %+v", st)
	}
	if st[3].StartCycle != 3 || st[3].EndCycle != 4 {
		t.Errorf("zero width should clamp to 1: window 3 spans [%d, %d)", st[3].StartCycle, st[3].EndCycle)
	}
	if p := PoolRange(0, 3, 4, Series{Arrivals: []uint64{3}, Values: []float64{7}}); p.Len() != 1 {
		t.Errorf("PoolRange with zero width should clamp to 1: %d values in window 3", p.Len())
	}
}

// TestWindowStatsPoolsSeries: windowing two series together equals pooling
// their per-window values, window by window and over a phase range.
func TestWindowStatsPoolsSeries(t *testing.T) {
	a := Series{Arrivals: []uint64{0, 5, 12, 28}, Values: []float64{1, 9, 4, 100}}
	b := Series{Arrivals: []uint64{3, 14, 15, 16, 33}, Values: []float64{2, 8, 6, 50, 7}}
	st := WindowStats(10, 95, a, b)
	if len(st) != 4 {
		t.Fatalf("want 4 windows, got %d", len(st))
	}
	for w := range st {
		manual := NewSample(8)
		for _, s := range []Series{a, b} {
			for i, at := range s.Arrivals {
				if int(at/10) == w {
					manual.Add(s.Values[i])
				}
			}
		}
		pooled := PoolRange(10, w, w+1, a, b)
		if !slices.Equal(pooled.Values(), manual.Values()) {
			t.Errorf("window %d: PoolRange %v, want %v", w, pooled.Values(), manual.Values())
		}
		tm, _ := manual.TailMean(95)
		want := WindowStat{Index: uint64(w), StartCycle: uint64(w) * 10, EndCycle: uint64(w+1) * 10,
			Count: uint64(manual.Len()), Mean: manual.Mean(),
			P95: manual.PercentileOrZero(95), P99: manual.PercentileOrZero(99), TailMean: tm}
		if st[w] != want {
			t.Errorf("window %d = %+v, want %+v", w, st[w], want)
		}
	}
	phase := PoolRange(10, 1, 3, a, b)
	if got, want := phase.Values(), []float64{4, 6, 8, 50, 100}; !slices.Equal(got, want) {
		t.Errorf("phase [1, 3) pooled %v, want %v", got, want)
	}
}

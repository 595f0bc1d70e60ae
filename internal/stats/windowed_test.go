package stats

import (
	"math"
	"testing"
)

func TestWindowedBasics(t *testing.T) {
	w := NewWindowed(100)
	// Window 0: 10 observations 1..10; window 2: one observation; window 1
	// stays empty.
	for i := 1; i <= 10; i++ {
		w.Add(uint64(i*9), float64(i))
	}
	w.Add(250, 42)

	st := w.Stats(95)
	if len(st) != 3 {
		t.Fatalf("expected 3 windows (including the empty one), got %d", len(st))
	}
	if st[0].Count != 10 || st[1].Count != 0 || st[2].Count != 1 {
		t.Errorf("counts = %d/%d/%d, want 10/0/1", st[0].Count, st[1].Count, st[2].Count)
	}
	if st[0].StartCycle != 0 || st[0].EndCycle != 100 || st[2].StartCycle != 200 {
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

func TestWindowedZeroWidthClamped(t *testing.T) {
	w := NewWindowed(0)
	w.Add(3, 7)
	st := w.Stats(95)
	if len(st) != 4 || st[3].Count != 1 {
		t.Errorf("clamped windowing misplaced the observation: %+v", st)
	}
	if st[3].StartCycle != 3 || st[3].EndCycle != 4 {
		t.Errorf("zero width should clamp to 1: window 3 spans [%d, %d)", st[3].StartCycle, st[3].EndCycle)
	}
}

func TestWindowedEmpty(t *testing.T) {
	w := NewWindowed(100)
	if got := w.Stats(95); len(got) != 0 {
		t.Errorf("empty collector should produce no windows, got %+v", got)
	}
	if got := w.Samples(); len(got) != 0 {
		t.Errorf("empty collector should expose no samples, got %+v", got)
	}
}

func TestPoolWindows(t *testing.T) {
	w := NewWindowed(10)
	for i := 0; i < 10; i++ {
		w.Add(uint64(i), float64(i)) // window 0
	}
	for i := 0; i < 5; i++ {
		w.Add(uint64(20+i), float64(100+i)) // window 2
	}
	samples := w.Samples()
	if len(samples) != 3 || samples[1] != nil {
		t.Fatalf("expected windows 0 and 2 populated, 1 nil: %v", samples)
	}
	pooled := PoolWindows(samples)
	if pooled.Len() != 15 {
		t.Errorf("pooled length = %d, want 15", pooled.Len())
	}
	if pooled.Max() != 104 || pooled.Min() != 0 {
		t.Errorf("pooled range [%v, %v], want [0, 104]", pooled.Min(), pooled.Max())
	}
	sub := PoolWindows(samples[2:])
	if sub.Len() != 5 || sub.Min() != 100 {
		t.Errorf("phase pooling over a subrange wrong: len %d min %v", sub.Len(), sub.Min())
	}
}

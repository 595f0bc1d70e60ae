package queueing

import (
	"math"
	"slices"
	"testing"

	"repro/internal/stats"
)

func TestRequestTimings(t *testing.T) {
	r := Request{ArrivalCycle: 100, StartCycle: 150, CompletionCycle: 400}
	if r.Latency() != 300 {
		t.Errorf("Latency = %d, want 300", r.Latency())
	}
	if r.ServiceTime() != 250 {
		t.Errorf("ServiceTime = %d, want 250", r.ServiceTime())
	}
	// Degenerate orderings clamp to zero rather than underflowing.
	weird := Request{ArrivalCycle: 500, StartCycle: 400, CompletionCycle: 300}
	if weird.Latency() != 0 || weird.ServiceTime() != 0 {
		t.Errorf("inverted timestamps should clamp to 0")
	}
}

func TestFIFOOrdering(t *testing.T) {
	var q FIFO
	if !q.Empty() {
		t.Errorf("new queue should be empty")
	}
	if q.Pop() != nil {
		t.Errorf("pop on empty queue should return nil")
	}
	for i := uint64(0); i < 5; i++ {
		q.Push(&Request{ID: i})
	}
	if q.Empty() {
		t.Errorf("queue should hold the pushed requests")
	}
	for i := uint64(0); i < 5; i++ {
		r := q.Pop()
		if r == nil || r.ID != i {
			t.Fatalf("FIFO order violated at %d", i)
		}
	}
	if !q.Empty() {
		t.Errorf("queue should be empty after popping everything")
	}
}

func TestFIFOInterleavedPushPop(t *testing.T) {
	var q FIFO
	next := uint64(0)
	expect := uint64(0)
	for round := 0; round < 100; round++ {
		for i := 0; i < 3; i++ {
			q.Push(&Request{ID: next})
			next++
		}
		for i := 0; i < 2; i++ {
			r := q.Pop()
			if r.ID != expect {
				t.Fatalf("FIFO order violated: got %d want %d", r.ID, expect)
			}
			expect++
		}
	}
	left := 0
	for r := q.Pop(); r != nil; r = q.Pop() {
		if r.ID != expect {
			t.Fatalf("FIFO order violated: got %d want %d", r.ID, expect)
		}
		expect++
		left++
	}
	if left != 100 {
		t.Errorf("queue should hold the 100 leftover requests, had %d", left)
	}
}

func TestRecorder(t *testing.T) {
	rec := NewRecorder(10)
	// Two measured requests with latencies 100 and 300, one warmup.
	rec.Record(&Request{ArrivalCycle: 0, StartCycle: 10, CompletionCycle: 100})
	rec.Record(&Request{ArrivalCycle: 0, StartCycle: 0, CompletionCycle: 300})
	rec.Record(&Request{ArrivalCycle: 0, StartCycle: 0, CompletionCycle: 999, Warmup: true})
	if rec.Completed() != 2 {
		t.Errorf("Completed = %d, want 2", rec.Completed())
	}
	if math.Abs(rec.MeanLatency()-200) > 1e-9 {
		t.Errorf("MeanLatency = %v, want 200", rec.MeanLatency())
	}
	if math.Abs(rec.MeanServiceTime()-195) > 1e-9 {
		t.Errorf("MeanServiceTime = %v, want 195", rec.MeanServiceTime())
	}
	// The tail over two points is the larger one.
	if math.Abs(rec.TailLatency(95)-300) > 1e-9 {
		t.Errorf("TailLatency = %v, want 300", rec.TailLatency(95))
	}
	if rec.Latencies().Len() != 2 || rec.ServiceTimes().Len() != 2 {
		t.Errorf("samples should hold only measured requests")
	}
}

func TestRecorderEmpty(t *testing.T) {
	rec := NewRecorder(0)
	if rec.TailLatency(95) != 0 {
		t.Errorf("tail latency of empty recorder should be 0")
	}
	if rec.MeanLatency() != 0 || rec.MeanServiceTime() != 0 {
		t.Errorf("means of empty recorder should be 0")
	}
}

func TestTailPercentileEdgeCases(t *testing.T) {
	lat := func(v uint64) *Request { return &Request{ArrivalCycle: 0, StartCycle: 0, CompletionCycle: v} }

	// Zero samples: every percentile is 0, not a panic.
	empty := NewRecorder(0)
	for _, p := range []float64{0, 50, 95, 100} {
		if got := empty.TailLatency(p); got != 0 {
			t.Errorf("empty TailLatency(%v) = %v, want 0", p, got)
		}
	}

	// One sample: every percentile is that sample.
	one := NewRecorder(1)
	one.Record(lat(700))
	for _, p := range []float64{0, 50, 95, 99.9, 100} {
		if got := one.TailLatency(p); got != 700 {
			t.Errorf("single-sample TailLatency(%v) = %v, want 700", p, got)
		}
	}

	// p = 100 on many samples: the tail window clamps to the last
	// observation (the maximum), never an empty slice.
	many := NewRecorder(10)
	for i := uint64(1); i <= 10; i++ {
		many.Record(lat(i * 10))
	}
	if got := many.TailLatency(100); got != 100 {
		t.Errorf("TailLatency(100) = %v, want the max 100", got)
	}

	// Duplicate latencies: ties across the percentile boundary must not
	// distort the tail mean (all observations equal => tail mean equal).
	dup := NewRecorder(8)
	for i := 0; i < 8; i++ {
		dup.Record(lat(250))
	}
	for _, p := range []float64{50, 95, 100} {
		if got := dup.TailLatency(p); got != 250 {
			t.Errorf("all-duplicates TailLatency(%v) = %v, want 250", p, got)
		}
	}

	// A mixed sample where the tail window is entirely duplicates.
	mixed := NewRecorder(10)
	for i := 0; i < 5; i++ {
		mixed.Record(lat(10))
	}
	for i := 0; i < 5; i++ {
		mixed.Record(lat(400))
	}
	if got := mixed.TailLatency(95); got != 400 {
		t.Errorf("duplicate-tail TailLatency(95) = %v, want 400", got)
	}
	// Only warmups recorded behaves like an empty recorder.
	warm := NewRecorder(2)
	warm.Record(&Request{CompletionCycle: 123, Warmup: true})
	if warm.TailLatency(95) != 0 || warm.Completed() != 0 {
		t.Errorf("warmup-only recorder should report no measured tail")
	}
}

func TestTailAtLeastMean(t *testing.T) {
	rec := NewRecorder(100)
	for i := 0; i < 100; i++ {
		rec.Record(&Request{ArrivalCycle: 0, StartCycle: 0, CompletionCycle: uint64(100 + i*7)})
	}
	if rec.TailLatency(95) < rec.MeanLatency() {
		t.Errorf("tail latency (%v) should be at least the mean (%v)", rec.TailLatency(95), rec.MeanLatency())
	}
}

// TestRecorderWindowed checks the recorder's request record: arrival
// cycles and latencies in request order, warmups left out, the plain
// statistics unchanged by it, and windows computed from it bucketing by
// arrival cycle (a request that arrives in one window and completes in the
// next counts against its arrival window).
func TestRecorderWindowed(t *testing.T) {
	rec := NewRecorder(8)
	reqs := []*Request{
		{ArrivalCycle: 0, StartCycle: 10, CompletionCycle: 110},       // window 0, latency 110
		{ArrivalCycle: 100, CompletionCycle: 999, Warmup: true},       // excluded
		{ArrivalCycle: 900, StartCycle: 900, CompletionCycle: 1500},   // window 0 (arrival), latency 600
		{ArrivalCycle: 1500, StartCycle: 1500, CompletionCycle: 1700}, // window 1
		{ArrivalCycle: 3100, StartCycle: 3100, CompletionCycle: 3400}, // window 3 (window 2 empty)
	}
	for _, r := range reqs {
		rec.Record(r)
	}
	got := rec.Requests()
	if !slices.Equal(got.Arrivals, []uint64{0, 900, 1500, 3100}) || !slices.Equal(got.Values, []float64{110, 600, 200, 300}) {
		t.Errorf("record = %v / %v, want the four measured requests in order", got.Arrivals, got.Values)
	}
	if rec.Completed() != 4 {
		t.Errorf("completed = %d, want 4 (the warmup stays out)", rec.Completed())
	}
	if rec.MeanLatency() != 302.5 {
		t.Errorf("mean latency = %v, want 302.5", rec.MeanLatency())
	}
	rec.Sort()
	if got := rec.Requests(); !slices.Equal(got.Values, []float64{110, 600, 200, 300}) {
		t.Errorf("Sort reordered the record: %v", got.Values)
	}
	st := stats.WindowStats(1000, 95, rec.Requests())
	if len(st) != 4 {
		t.Fatalf("expected 4 windows, got %d", len(st))
	}
	if st[3].StartCycle != 3000 || st[3].EndCycle != 4000 {
		t.Errorf("window 3 spans [%d, %d), want the 1000-cycle width [3000, 4000)", st[3].StartCycle, st[3].EndCycle)
	}
	if st[0].Count != 2 || st[1].Count != 1 || st[2].Count != 0 || st[3].Count != 1 {
		t.Errorf("window counts = %d/%d/%d/%d, want 2/1/0/1", st[0].Count, st[1].Count, st[2].Count, st[3].Count)
	}
	if st[0].Mean != 355 { // (110 + 600) / 2
		t.Errorf("window 0 mean = %v, want 355", st[0].Mean)
	}
}

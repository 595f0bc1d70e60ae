package queueing

import (
	"slices"
	"testing"

	"repro/internal/stats"
)

// lat is a measured request that started on arrival and took v cycles.
func lat(v uint64) Request { return Request{Completion: v} }

// tail returns the derived latency sample's tail mean, 0 when it is empty.
func tail(d Derived, p float64) float64 {
	v, err := d.Latencies.TailMean(p)
	if err != nil {
		return 0
	}
	return v
}

func TestRequestTimings(t *testing.T) {
	r := Request{Arrival: 100, Start: 150, Completion: 400}
	if r.Latency() != 300 {
		t.Errorf("Latency = %d, want 300", r.Latency())
	}
	if r.ServiceTime() != 250 {
		t.Errorf("ServiceTime = %d, want 250", r.ServiceTime())
	}
	// Served on arrival, latency and service time coincide.
	if r := (Request{Arrival: 70, Start: 70, Completion: 90}); r.Latency() != 20 || r.ServiceTime() != 20 {
		t.Errorf("a request served on arrival: latency %d, service %d, want 20 each", r.Latency(), r.ServiceTime())
	}
}

func TestRecorder(t *testing.T) {
	// One warm-up request, then two measured ones with latencies 100 and 300.
	reqs := []Request{
		{Arrival: 0, Start: 0, Completion: 999},
		{Arrival: 0, Start: 10, Completion: 100},
		{Arrival: 0, Start: 0, Completion: 300},
	}
	d := Derive(reqs, 1)
	if d.Latencies.Len() != 2 || d.ServiceTimes.Len() != 2 || len(d.Record.Arrivals) != 2 {
		t.Errorf("samples hold %d latencies, %d service times, %d record entries; want only the 2 measured requests",
			d.Latencies.Len(), d.ServiceTimes.Len(), len(d.Record.Arrivals))
	}
	if d.Latencies.Mean() != 200 {
		t.Errorf("mean latency = %v, want 200", d.Latencies.Mean())
	}
	if d.ServiceTimes.Mean() != 195 {
		t.Errorf("mean service time = %v, want 195", d.ServiceTimes.Mean())
	}
	// The tail over two points is the larger one.
	if got := tail(d, 95); got != 300 {
		t.Errorf("tail latency = %v, want 300", got)
	}
}

func TestTailPercentileEdgeCases(t *testing.T) {
	// Zero measured requests, or only warm-up ones: empty samples, zero
	// means and no tail.
	for _, reqs := range [][]Request{nil, {lat(123), lat(456)}} {
		d := Derive(reqs, len(reqs))
		if d.Latencies.Len() != 0 || d.Latencies.Mean() != 0 || d.ServiceTimes.Mean() != 0 {
			t.Errorf("%d warm-up requests: %d latencies, means %v/%v; want an empty record",
				len(reqs), d.Latencies.Len(), d.Latencies.Mean(), d.ServiceTimes.Mean())
		}
		if _, err := d.Latencies.TailMean(95); err == nil {
			t.Errorf("%d warm-up requests: the empty sample reports a tail", len(reqs))
		}
	}

	// One sample: every percentile is that sample.
	one := Derive([]Request{lat(700)}, 0)
	for _, p := range []float64{0, 50, 95, 99.9, 100} {
		if got := tail(one, p); got != 700 {
			t.Errorf("single-sample tail(%v) = %v, want 700", p, got)
		}
	}

	// p = 100 on many samples: the tail window clamps to the last
	// observation (the maximum), never an empty slice.
	var reqs []Request
	for i := uint64(1); i <= 10; i++ {
		reqs = append(reqs, lat(i*10))
	}
	if got := tail(Derive(reqs, 0), 100); got != 100 {
		t.Errorf("tail(100) = %v, want the max 100", got)
	}

	// Duplicate latencies: ties across the percentile boundary must not
	// distort the tail mean (all observations equal => tail mean equal).
	dup := Derive(slices.Repeat([]Request{lat(250)}, 8), 0)
	for _, p := range []float64{50, 95, 100} {
		if got := tail(dup, p); got != 250 {
			t.Errorf("all-duplicates tail(%v) = %v, want 250", p, got)
		}
	}

	// A mixed sample whose tail window is entirely duplicates.
	mixed := Derive(append(slices.Repeat([]Request{lat(10)}, 5), slices.Repeat([]Request{lat(400)}, 5)...), 0)
	if got := tail(mixed, 95); got != 400 {
		t.Errorf("duplicate-tail tail(95) = %v, want 400", got)
	}
}

func TestTailAtLeastMean(t *testing.T) {
	var reqs []Request
	for i := 0; i < 100; i++ {
		reqs = append(reqs, lat(uint64(100+i*7)))
	}
	d := Derive(reqs, 0)
	if got := tail(d, 95); got < d.Latencies.Mean() {
		t.Errorf("tail latency (%v) should be at least the mean (%v)", got, d.Latencies.Mean())
	}
}

// TestRecorderWindowed checks the derived request record: arrival cycles
// and latencies in request order, warm-up left out, the sorted samples not
// reordering it, and windows computed from it bucketing by arrival cycle (a
// request that arrives in one window and completes in the next counts
// against its arrival window).
func TestRecorderWindowed(t *testing.T) {
	reqs := []Request{
		{Arrival: 100, Start: 100, Completion: 999},    // warm-up, excluded
		{Arrival: 0, Start: 10, Completion: 110},       // window 0, latency 110
		{Arrival: 900, Start: 900, Completion: 1500},   // window 0 (arrival), latency 600
		{Arrival: 1500, Start: 1500, Completion: 1700}, // window 1
		{Arrival: 3100, Start: 3100, Completion: 3400}, // window 3 (window 2 empty)
	}
	d := Derive(reqs, 1)
	if !slices.Equal(d.Record.Arrivals, []uint64{0, 900, 1500, 3100}) || !slices.Equal(d.Record.Values, []float64{110, 600, 200, 300}) {
		t.Errorf("record = %v / %v, want the four measured requests in order", d.Record.Arrivals, d.Record.Values)
	}
	if v := d.Latencies.Values(); !slices.Equal(v, []float64{110, 200, 300, 600}) {
		t.Errorf("latency sample = %v, want it sorted", v)
	}
	if d.Latencies.Mean() != 302.5 {
		t.Errorf("mean latency = %v, want 302.5", d.Latencies.Mean())
	}
	st := stats.WindowStats(1000, 95, d.Record)
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

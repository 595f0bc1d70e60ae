package workload

import "testing"

func TestTraceStreamReplaysAndWraps(t *testing.T) {
	ts, err := NewTraceStreamAddrs([]uint64{10, 20, 30}, 3)
	if err != nil {
		t.Fatalf("NewTraceStreamAddrs: %v", err)
	}
	want := []uint64{10, 20, 30, 10, 20, 30, 10}
	for i, w := range want {
		if got := ts.Next(); got != w {
			t.Fatalf("Next #%d = %d, want %d", i, got, w)
		}
	}
	if ts.Wraps() != 2 {
		t.Fatalf("Wraps = %d, want 2", ts.Wraps())
	}
	if ts.Pos() != 1 {
		t.Fatalf("Pos = %d, want 1", ts.Pos())
	}
	if ts.Footprint() != 3 {
		t.Fatalf("Footprint = %d, want 3", ts.Footprint())
	}
}

func TestTraceStreamStridedView(t *testing.T) {
	// A stride-3/offset-2 view over packed trace records: [c0,m0,a0, c1,m1,a1].
	words := []uint64{100, 0, 7, 200, 0, 9}
	ts, err := NewTraceStream(words, 3, 2, 2, 2)
	if err != nil {
		t.Fatalf("NewTraceStream: %v", err)
	}
	if a, b := ts.Next(), ts.Next(); a != 7 || b != 9 {
		t.Fatalf("strided Next = %d,%d, want 7,9", a, b)
	}
}

func TestTraceStreamRejectsBadViews(t *testing.T) {
	if _, err := NewTraceStream([]uint64{1, 2}, 0, 0, 1, 1); err == nil {
		t.Fatal("stride 0 accepted")
	}
	if _, err := NewTraceStream([]uint64{1, 2}, 2, 2, 1, 1); err == nil {
		t.Fatal("offset >= stride accepted")
	}
	if _, err := NewTraceStream([]uint64{1, 2}, 1, 0, 3, 1); err == nil {
		t.Fatal("view past backing accepted")
	}
	if _, err := NewTraceStreamAddrs(nil, 0); err == nil {
		t.Fatal("empty trace accepted")
	}
}

// TestTraceStreamCloneContract checks the checkpoint/fork contract: a clone
// continues the identical sequence, advances independently and shares the
// backing words.
func TestTraceStreamCloneContract(t *testing.T) {
	ts, err := NewTraceStreamAddrs([]uint64{1, 2, 3, 4, 5}, 5)
	if err != nil {
		t.Fatalf("NewTraceStreamAddrs: %v", err)
	}
	ts.BeginRequest()
	ts.Next()
	ts.Next()

	c := ts.Clone()
	if &c.words[0] != &ts.words[0] {
		t.Fatal("clone copied the backing words instead of sharing them")
	}
	if c.RequestID() != ts.RequestID() || c.Pos() != ts.Pos() {
		t.Fatal("clone cursor state differs from original")
	}
	// Both continue identically, independently.
	for i := 0; i < 7; i++ {
		a, b := ts.Next(), c.Next()
		if a != b {
			t.Fatalf("divergence at step %d: %d vs %d", i, a, b)
		}
	}
}

// TestStreamAddressStreamAdapter pins that the AddressStream wrapper on the
// synthetic *Stream delegates to Clone: the cloned stream continues the
// identical draw sequence.
func TestStreamAddressStreamAdapter(t *testing.T) {
	st, err := NewStream(0, []Layer{{Name: "hot", Lines: 64, Weight: 1}}, 0, NewClonableRand(42))
	if err != nil {
		t.Fatalf("NewStream: %v", err)
	}
	var as AddressStream = st
	as.BeginRequest()
	as.Next()
	c := as.CloneAddressStream()
	for i := 0; i < 16; i++ {
		a, b := as.Next(), c.Next()
		if a != b {
			t.Fatalf("clone divergence at step %d: %d vs %d", i, a, b)
		}
	}
}

// TestReplayArrivalsBoundary pins end-of-sequence behaviour at exactly
// len(times) and len(times)+1 requests: the recorded times replay verbatim,
// the next call returns the sentinel gap and flips Exhausted/Overruns.
func TestReplayArrivalsBoundary(t *testing.T) {
	times := []uint64{5, 17, 40}
	r := NewReplayArrivals(times)
	if r.Len() != 3 || r.Remaining() != 3 || r.Exhausted() || r.Overruns() != 0 {
		t.Fatalf("fresh state: Len=%d Remaining=%d Exhausted=%v Overruns=%d",
			r.Len(), r.Remaining(), r.Exhausted(), r.Overruns())
	}
	prev := uint64(0)
	for i, want := range times {
		prev = r.Next(prev)
		if prev != want {
			t.Fatalf("Next #%d = %d, want %d", i, prev, want)
		}
	}
	// Exactly len(times) requests: exhausted, but no overrun yet.
	if !r.Exhausted() || r.Remaining() != 0 || r.Overruns() != 0 {
		t.Fatalf("at boundary: Exhausted=%v Remaining=%d Overruns=%d",
			r.Exhausted(), r.Remaining(), r.Overruns())
	}
	// Request len(times)+1: sentinel gap, overrun counted.
	got := r.Next(prev)
	if got != prev+replayExhaustedGap {
		t.Fatalf("overrun Next = %d, want prev+sentinel = %d", got, prev+replayExhaustedGap)
	}
	if r.Overruns() != 1 {
		t.Fatalf("Overruns = %d, want 1", r.Overruns())
	}
	// Every later call keeps moving the clock strictly forward.
	got2 := r.Next(got)
	if got2 != got+replayExhaustedGap {
		t.Fatalf("second overrun Next = %d, want %d", got2, got+replayExhaustedGap)
	}
	if r.Overruns() != 2 {
		t.Fatalf("Overruns = %d, want 2", r.Overruns())
	}
}

// TestReplayArrivalsCloneMidExhaustion verifies CloneArrival round-trips
// exhaustion state: a clone taken after the stream ran out reports Exhausted
// and continues the identical sentinel sequence.
func TestReplayArrivalsCloneMidExhaustion(t *testing.T) {
	r := NewReplayArrivals([]uint64{3, 9})
	prev := uint64(0)
	prev = r.Next(prev)
	prev = r.Next(prev)
	prev = r.Next(prev) // first overrun

	c := r.CloneArrival().(*ReplayArrivals)
	if !c.Exhausted() || c.Overruns() != r.Overruns() || c.Remaining() != 0 {
		t.Fatalf("clone mid-exhaustion: Exhausted=%v Overruns=%d Remaining=%d",
			c.Exhausted(), c.Overruns(), c.Remaining())
	}
	for i := 0; i < 3; i++ {
		a, b := r.Next(prev), c.Next(prev)
		if a != b {
			t.Fatalf("clone sentinel divergence at step %d: %d vs %d", i, a, b)
		}
		prev = a
	}

	// A clone taken mid-replay (not yet exhausted) also round-trips.
	r2 := NewReplayArrivals([]uint64{3, 9, 27})
	r2.Next(0)
	c2 := r2.CloneArrival().(*ReplayArrivals)
	if c2.Exhausted() || c2.Remaining() != 2 {
		t.Fatalf("mid-replay clone: Exhausted=%v Remaining=%d", c2.Exhausted(), c2.Remaining())
	}
	p1, p2 := uint64(3), uint64(3)
	for i := 0; i < 4; i++ {
		a, b := r2.Next(p1), c2.Next(p2)
		if a != b {
			t.Fatalf("mid-replay clone divergence at step %d: %d vs %d", i, a, b)
		}
		p1, p2 = a, b
	}
}

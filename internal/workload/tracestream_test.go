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
}

func TestTraceStreamStridedView(t *testing.T) {
	// A stride-3/offset-2 view over packed trace records: [c0,m0,a0, c1,m1,a1].
	words := []uint64{100, 0, 7, 200, 0, 9}
	ts, err := NewTraceStream(words, 3, 2, 2)
	if err != nil {
		t.Fatalf("NewTraceStream: %v", err)
	}
	if a, b := ts.Next(), ts.Next(); a != 7 || b != 9 {
		t.Fatalf("strided Next = %d,%d, want 7,9", a, b)
	}
}

func TestTraceStreamRejectsBadViews(t *testing.T) {
	if _, err := NewTraceStream([]uint64{1, 2}, 0, 0, 1); err == nil {
		t.Fatal("stride 0 accepted")
	}
	if _, err := NewTraceStream([]uint64{1, 2}, 2, 2, 1); err == nil {
		t.Fatal("offset >= stride accepted")
	}
	if _, err := NewTraceStream([]uint64{1, 2}, 1, 0, 3); err == nil {
		t.Fatal("view past backing accepted")
	}
	if _, err := NewTraceStreamAddrs(nil, 0); err == nil {
		t.Fatal("empty trace accepted")
	}
}

// TestTraceStreamCloneContract checks the per-run template copy: a clone
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

// TestReplayArrivalsBoundary pins end-of-sequence behaviour at exactly
// len(times) and len(times)+1 requests: the recorded times replay verbatim,
// Remaining counts down to 0, and every later call returns the sentinel gap.
func TestReplayArrivalsBoundary(t *testing.T) {
	times := []uint64{5, 17, 40}
	r := NewReplayArrivals(times)
	if r.Remaining() != 3 {
		t.Fatalf("fresh state: Remaining=%d, want 3", r.Remaining())
	}
	prev := uint64(0)
	for i, want := range times {
		prev = r.Next(prev)
		if prev != want {
			t.Fatalf("Next #%d = %d, want %d", i, prev, want)
		}
	}
	if r.Remaining() != 0 {
		t.Fatalf("at boundary: Remaining=%d, want 0", r.Remaining())
	}
	// Request len(times)+1: sentinel gap.
	got := r.Next(prev)
	if got != prev+replayExhaustedGap {
		t.Fatalf("overrun Next = %d, want prev+sentinel = %d", got, prev+replayExhaustedGap)
	}
	// Every later call keeps moving the clock strictly forward.
	got2 := r.Next(got)
	if got2 != got+replayExhaustedGap {
		t.Fatalf("second overrun Next = %d, want %d", got2, got+replayExhaustedGap)
	}
	if r.Remaining() != 0 {
		t.Fatalf("after overruns: Remaining=%d, want 0", r.Remaining())
	}
}

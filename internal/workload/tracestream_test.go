package workload

import (
	"slices"
	"testing"
)

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

// TestReplayArrivalsBoundary pins the stream's prefix property at the
// boundary a replayed slot relies on: the n times drawn for an n-request run
// are exactly the first n of a longer draw from the same seed and schedule,
// so a slot handed a stream's prefix replays what it would have drawn.
func TestReplayArrivalsBoundary(t *testing.T) {
	sched, err := ParseSchedule("mmpp:x=3,on=2e5,off=4e5")
	if err != nil {
		t.Fatal(err)
	}
	long, err := ArrivalTimes(5_000, 17, sched, 400)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, 3, 399, 400} {
		short, err := ArrivalTimes(5_000, 17, sched, n)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(short, long[:n]) {
			t.Fatalf("ArrivalTimes(n=%d) is not the %d-prefix of the 400-time stream", n, n)
		}
	}
}

package monitor

import (
	"sync"
	"testing"
)

func newFeedUMON(t *testing.T) *UMON {
	t.Helper()
	u, err := NewUMON(4096, 16, 256)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestNewSampledUMONValidation(t *testing.T) {
	u := newFeedUMON(t)
	if _, err := NewSampledUMON(nil, 1); err == nil {
		t.Fatal("accepted nil UMON")
	}
	if _, err := NewSampledUMON(u, 0); err == nil {
		t.Fatal("accepted rate 0")
	}
	if _, err := NewSampledUMON(u, -0.5); err == nil {
		t.Fatal("accepted negative rate")
	}
}

func TestSampledUMONStride(t *testing.T) {
	u := newFeedUMON(t)
	cases := []struct {
		rate float64
		want uint64
	}{
		{1, 1},
		{2, 1}, // >= 1 forwards everything
		{0.5, 2},
		{0.1, 10},
		{0.01, 100},
		{0.003, 333},
	}
	for _, tc := range cases {
		s, err := NewSampledUMON(u, tc.rate)
		if err != nil {
			t.Fatalf("rate %v: %v", tc.rate, err)
		}
		if s.Stride() != tc.want {
			t.Errorf("rate %v: stride %d, want %d", tc.rate, s.Stride(), tc.want)
		}
	}
}

func TestSampledUMONForwardsOneInK(t *testing.T) {
	u := newFeedUMON(t)
	s, err := NewSampledUMON(u, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		s.Access(uint64(i))
	}
	if s.Presented() != 1000 {
		t.Fatalf("presented %d, want 1000", s.Presented())
	}
	if fed := u.AccessesSince(UMONSnapshot{}); fed != 250 {
		t.Fatalf("UMON saw %d accesses, want 250", fed)
	}
}

func TestSampledUMONScalesCurveToPresentedStream(t *testing.T) {
	u := newFeedUMON(t)
	s, err := NewSampledUMON(u, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10_000; i++ {
		s.Access(uint64(i % 97)) // small reusable set
	}
	curve, snap := s.CurveAndSnapshot(SampledSnapshot{})
	// The curve is projected onto the presented stream: its access count must
	// match what was presented, not the 1-in-10 fed stream.
	if got := curve.Accesses; got < 9000 || got > 11000 {
		t.Fatalf("scaled curve accesses = %v, want ~10000", got)
	}
	// The returned snapshot is the window boundary: a second read since snap
	// with no new traffic yields an empty window.
	curve2, _ := s.CurveAndSnapshot(snap)
	if curve2.Accesses != 0 {
		t.Fatalf("empty window has %v accesses", curve2.Accesses)
	}
}

func TestSampledUMONScalesWindowByItsOwnDelta(t *testing.T) {
	u := newFeedUMON(t)
	s, err := NewSampledUMON(u, 0.1) // stride 10
	if err != nil {
		t.Fatal(err)
	}
	// First window: 15 presented, 1 fed (at n=10). The stride is half-way
	// through its next period when the snapshot is taken.
	for i := 0; i < 15; i++ {
		s.Access(uint64(i))
	}
	_, snap := s.CurveAndSnapshot(SampledSnapshot{})
	// Second window: 10 presented, 1 fed (at n=20). Scaling by this window's
	// own presented/fed delta gives exactly 10 accesses; the lifetime ratio
	// (25/2 = 12.5) would misattribute the first window's stride phase.
	for i := 0; i < 10; i++ {
		s.Access(uint64(i))
	}
	curve, _ := s.CurveAndSnapshot(snap)
	if curve.Accesses != 10 {
		t.Fatalf("window curve accesses = %v, want 10 (per-window scaling)", curve.Accesses)
	}
}

func TestSampledUMONConcurrentAccess(t *testing.T) {
	u := newFeedUMON(t)
	s, err := NewSampledUMON(u, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	const workers, per = 8, 10_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				s.Access(uint64(w*per + i))
				if i%1000 == 0 {
					s.MissCurve(SampledSnapshot{}) // concurrent reader
				}
			}
		}(w)
	}
	wg.Wait()
	if s.Presented() != workers*per {
		t.Fatalf("presented %d, want %d", s.Presented(), workers*per)
	}
	// Every stride-th presented access was forwarded, regardless of how the
	// goroutines interleaved.
	if fed := u.AccessesSince(UMONSnapshot{}); fed != uint64(workers*per)/s.Stride() {
		t.Fatalf("UMON saw %d accesses, want %d", fed, uint64(workers*per)/s.Stride())
	}
}

func TestSampledUMONReset(t *testing.T) {
	u := newFeedUMON(t)
	s, err := NewSampledUMON(u, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		s.Access(uint64(i))
	}
	s.Reset()
	if s.Presented() != 0 {
		t.Fatalf("presented %d after Reset", s.Presented())
	}
	if fed := u.AccessesSince(UMONSnapshot{}); fed != 0 {
		t.Fatalf("UMON has %d accesses after Reset", fed)
	}
}

func TestSampledUMONForwardScalesByN(t *testing.T) {
	u := newFeedUMON(t)
	s, err := NewSampledUMON(u, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		s.Forward(uint64(i%3), s.Stride())
	}
	if s.Presented() != 70 || s.Fed() != 7 {
		t.Fatalf("presented %d, fed %d; want 70 and 7", s.Presented(), s.Fed())
	}
	if curve := s.MissCurve(SampledSnapshot{}); curve.Accesses != 70 {
		t.Fatalf("curve accesses = %v, want 70 (7 forwards × stride 10)", curve.Accesses)
	}
}

package parallel

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestForCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		out := make([]int, 100)
		if err := For(len(out), workers, func(i int) error {
			out[i] = i + 1
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range out {
			if v != i+1 {
				t.Fatalf("workers=%d: index %d not visited (got %d)", workers, i, v)
			}
		}
	}
}

func TestForReturnsLowestIndexError(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	err := For(10, 4, func(i int) error {
		switch i {
		case 3:
			return errA
		case 7:
			return errB
		}
		return nil
	})
	if err != errA {
		t.Fatalf("got %v, want the lowest-index error %v", err, errA)
	}
}

// A failing body must stop the pool from claiming the rest of the list: with
// index 0 failing once every worker holds an index, only those in-flight
// bodies run.
func TestForStopsClaimingAfterError(t *testing.T) {
	const n, workers = 1000, 4
	boom := errors.New("boom")
	var started atomic.Int64
	zeroDone := make(chan struct{})
	err := For(n, workers, func(i int) error {
		started.Add(1)
		if i == 0 {
			for started.Load() < workers {
				time.Sleep(time.Millisecond)
			}
			close(zeroDone)
			return boom
		}
		// Hold the index until the failure has been returned and recorded.
		<-zeroDone
		time.Sleep(50 * time.Millisecond)
		return nil
	})
	if err != boom {
		t.Fatalf("got %v, want %v", err, boom)
	}
	if got := started.Load(); got > workers {
		t.Fatalf("%d bodies ran after an index-0 failure, want at most %d (one per worker)", got, workers)
	}
}

// The early stop must not change which error wins: a higher index failing
// first stops new claims, but the lower index is already in flight and its
// error is the one returned.
func TestForLowestIndexErrorWhenHigherFailsFirst(t *testing.T) {
	errLow := errors.New("low")
	errHigh := errors.New("high")
	highFailed := make(chan struct{})
	err := For(10, 4, func(i int) error {
		switch i {
		case 3:
			<-highFailed
			time.Sleep(5 * time.Millisecond)
			return errLow
		case 7:
			close(highFailed)
			return errHigh
		}
		return nil
	})
	if err != errLow {
		t.Fatalf("got %v, want the lowest-index error %v", err, errLow)
	}
}

func TestForEmpty(t *testing.T) {
	if err := For(0, 4, func(int) error { return errors.New("must not run") }); err != nil {
		t.Fatal(err)
	}
}

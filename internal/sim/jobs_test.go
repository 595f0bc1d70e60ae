package sim

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/workload"
)

// The For tests run RunJobs' claim loop (forEach) directly.

func TestForCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		out := make([]int, 100)
		if err := forEach(len(out), workers, func(i int) error {
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
	err := forEach(10, 4, func(i int) error {
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
	err := forEach(n, workers, func(i int) error {
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
	err := forEach(10, 4, func(i int) error {
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
	if err := forEach(0, 4, func(int) error { return errors.New("must not run") }); err != nil {
		t.Fatal(err)
	}
}

// TestRunJobsComputesRepeatedKeyOnce: a key listed twice in one job list runs
// once, and both done calls see that one result; an unkeyed job with the
// same inputs runs on its own and reads the same.
func TestRunJobsComputesRepeatedKeyOnce(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 42
	var runs atomic.Int64
	job := Job{Config: cfg, Specs: goldenSpecs(t, workload.ScheduleSpec{}), Key: "k", NewPolicy: func() policy.Policy {
		runs.Add(1)
		return policy.NewLRU()
	}}
	unkeyed := job
	unkeyed.Key = ""
	got := make([]Result, 3)
	if err := RunJobs([]Job{job, job, unkeyed}, 3, NewWarmPool(), func(i int, res Result, err error) error {
		got[i] = res
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if n := runs.Load(); n != 2 {
		t.Fatalf("%d runs, want 2 (the repeated key once, the unkeyed job once)", n)
	}
	if &got[0].Apps[0] != &got[1].Apps[0] {
		t.Error("the two done calls of one key saw different results")
	}
	if &got[2].Apps[0] == &got[0].Apps[0] || got[2].Apps[0].TailLatency != got[0].Apps[0].TailLatency {
		t.Error("the unkeyed job must run on its own and read the same")
	}
}

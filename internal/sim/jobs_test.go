package sim

import (
	"errors"
	"slices"
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
// same inputs runs on its own and reads the same; and a job with the same
// key but one input changed (a slot seed, or one explicit arrival time) is
// another computation and runs on its own.
func TestRunJobsComputesRepeatedKeyOnce(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 42
	var runs atomic.Int64
	newPolicy := func() policy.Policy {
		runs.Add(1)
		return policy.NewLRU()
	}
	for _, tc := range []struct {
		name   string
		specs  []AppSpec
		change func(*AppSpec)
	}{
		{"seed", goldenSpecs(t, workload.ScheduleSpec{}), func(s *AppSpec) { s.Seed = 7 }},
		{"arrival time", explicitSpecs(t), func(s *AppSpec) {
			s.ArrivalTimes = slices.Clone(s.ArrivalTimes)
			s.ArrivalTimes[len(s.ArrivalTimes)-1]++
		}},
	} {
		runs.Store(0)
		job := Job{Config: cfg, Specs: tc.specs, Key: "k", NewPolicy: newPolicy}
		unkeyed := job
		unkeyed.Key = ""
		changed := job
		changed.Specs = slices.Clone(job.Specs)
		tc.change(&changed.Specs[0])
		got := make([]Result, 4)
		if err := RunJobs([]Job{job, job, unkeyed, changed}, 4, NewWarmPool(), func(i int, res Result, err error) error {
			got[i] = res
			return err
		}); err != nil {
			t.Fatal(err)
		}
		if n := runs.Load(); n != 3 {
			t.Fatalf("%s: %d runs, want 3 (the repeated key once, the unkeyed job once, the changed job once)", tc.name, n)
		}
		if &got[0].Apps[0] != &got[1].Apps[0] {
			t.Errorf("%s: the two done calls of one key saw different results", tc.name)
		}
		if &got[2].Apps[0] == &got[0].Apps[0] || got[2].Apps[0].TailLatency != got[0].Apps[0].TailLatency {
			t.Errorf("%s: the unkeyed job must run on its own and read the same", tc.name)
		}
		if &got[3].Apps[0] == &got[0].Apps[0] || slices.Equal(got[3].Apps[0].RequestLatencies, got[0].Apps[0].RequestLatencies) &&
			slices.Equal(got[3].Apps[0].RequestArrivals, got[0].Apps[0].RequestArrivals) {
			t.Errorf("%s: the changed job must run on its own and read differently", tc.name)
		}
	}
}

// explicitSpecs is one latency-critical slot replaying 40 explicit arrival
// times, five of them warm-up.
func explicitSpecs(t testing.TB) []AppSpec {
	t.Helper()
	lc, err := workload.LCByName("masstree")
	if err != nil {
		t.Fatal(err)
	}
	times := make([]uint64, 40)
	for i := range times {
		times[i] = uint64(i+1) * 60_000
	}
	return []AppSpec{{LC: &lc, ArrivalTimes: times, ExplicitWarmup: 5}}
}

// TestPoolKeyNamesTraceByTemplate: a slot's recorded trace is keyed by its
// template, so two opens of one recording never share an entry, one template
// at one cursor always keys alike, and the key's templates are handed back
// for the pool entry to hold.
func TestPoolKeyNamesTraceByTemplate(t *testing.T) {
	open := func() *workload.TraceStream {
		ts, err := workload.NewTraceStream([]uint64{64, 128, 192}, 1, 0, 3)
		if err != nil {
			t.Fatal(err)
		}
		return ts
	}
	withTrace := func(ts *workload.TraceStream) Job {
		specs := goldenSpecs(t, workload.ScheduleSpec{})
		specs[1].Trace = ts
		return Job{Config: DefaultConfig(), Specs: specs, Key: "k"}
	}
	a, b := open(), open()
	ka, pinned := withTrace(a).poolKey()
	if again, _ := withTrace(a).poolKey(); again != ka {
		t.Error("one template keyed differently twice")
	}
	if kb, _ := withTrace(b).poolKey(); kb == ka {
		t.Error("two opens of one recording share a key")
	}
	if len(pinned) != 1 || pinned[0] != a {
		t.Errorf("key handed back %v, want the one template", pinned)
	}
	a.Next()
	if moved, _ := withTrace(a).poolKey(); moved == ka {
		t.Error("a template at another cursor keeps its key")
	}
}

package sim

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/queueing"
	"repro/internal/workload"
)

// checkServer checks every latency-critical slot of a finished run against
// Lindley's recursion for the single worker serving an open-loop FIFO that
// the slot models. For every request i, warm-up included,
//
//	start_i = max(arrival_i + coalesceDelayCycles, completion_{i-1})
//
// with completion_{-1} the slot's starting clock (0); every request takes
// positive service time, and completions never go backwards.
//
// Two faults touch a request without bending the recursion, and the check
// holds across both:
//   - a ColdRestart dumps the caches mid-request: the in-flight request
//     finishes its remaining accesses on the cold cache, keeping the start
//     it had before the restart (only its completion moves);
//   - a fail-slow window inflates a request's demand once, at arrival, by
//     the window its arrival cycle falls in, whatever windows its start or
//     service overlaps. The helper asserts this by redrawing every demand
//     from the slot's seed and inflating it by its arrival alone.
func checkServer(t testing.TB, s *Simulator) {
	t.Helper()
	for _, a := range s.apps {
		if !a.isLC() {
			continue
		}
		if a.inService || a.served != len(a.reqs) {
			t.Errorf("slot %d: %d of %d requests served (in service: %v) after the run", a.idx, a.served, len(a.reqs), a.inService)
			continue
		}
		seed := a.spec.Seed
		if seed == 0 {
			seed = workload.SplitSeed(s.cfg.Seed, uint64(a.idx)+101)
		}
		draws, err := workload.NewLCApp(*a.spec.LC, a.idx, seed)
		if err != nil {
			t.Fatal(err)
		}
		prev := uint64(0)
		for i, r := range a.reqs {
			if want := max(r.Arrival+coalesceDelayCycles, prev); r.Start != want {
				t.Errorf("slot %d request %d: start %d, want max(arrival %d + coalesce %d, previous completion %d) = %d",
					a.idx, i, r.Start, r.Arrival, coalesceDelayCycles, prev, want)
				return
			}
			if r.Completion <= r.Start || r.Completion < prev {
				t.Errorf("slot %d request %d: completion %d after start %d and previous completion %d", a.idx, i, r.Completion, r.Start, prev)
				return
			}
			if want := inflateDemand(draws.NextServiceDemand(), r.Arrival, a.spec.SlowWindows); r.Demand != want {
				t.Errorf("slot %d request %d: demand %d, want the draw inflated by its arrival's window, %d", a.idx, i, r.Demand, want)
				return
			}
			prev = r.Completion
		}
	}
}

// idleProbe wraps a policy and records, at every reconfiguration, the
// boundary being fired and one slot's local clock and credited idle cycles,
// read before the simulator resets them for the next interval.
type idleProbe struct {
	policy.Policy
	slot  int
	marks []idleMark
}

type idleMark struct{ boundary, clock, idle uint64 }

func (p *idleProbe) Reconfigure(v policy.View) []policy.Resize {
	s := v.(*simView).s
	a := s.apps[p.slot]
	p.marks = append(p.marks, idleMark{s.nextReconfig, a.clock, a.idleInInterval})
	return p.Policy.Reconfigure(v)
}

// busyIn returns the cycles of [from, to) a slot's worker spent serving
// requests, from the record's [start, completion) spans.
func busyIn(reqs []queueing.Request, from, to uint64) uint64 {
	var busy uint64
	for _, r := range reqs {
		if lo, hi := max(r.Start, from), min(r.Completion, to); lo < hi {
			busy += hi - lo
		}
	}
	return busy
}

// TestIdleCreditConservesWork checks the idle cycles Ubik sizes boosts with
// (simView.IdleFraction divides them by the reconfiguration interval)
// against the busy cycles of the request record.
//
// The crediting rule: an idle jump is credited whole to the interval it
// starts in, even when it carries the slot's clock past one or more
// boundaries, and the credit is reset at each reconfiguration. Under that
// rule the credited interval of a slot is its local clock's span between
// two reconfigurations, not the nominal interval, and busy + idle equals
// that span exactly. The test asserts the identity and logs how far
// IdleFraction then strays from the slot's true idle share of each nominal
// interval.
func TestIdleCreditConservesWork(t *testing.T) {
	if testing.Short() {
		t.Skip("sim runs are slow")
	}
	// The golden mix, run for long enough, with an interval short enough
	// that idle gaps often straddle a boundary and sometimes several.
	cfg := DefaultConfig()
	cfg.Seed = 42
	cfg.ReconfigIntervalCycles = 100_000
	specs := goldenSpecs(t, workload.ScheduleSpec{})
	specs[0].RequestFactor = 0.2
	probe := &idleProbe{Policy: core.NewUbikWithSlack(0.05)}
	s, err := New(cfg, specs, probe)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	checkServer(t, s)
	reqs := s.apps[probe.slot].reqs
	if len(probe.marks) < 3 {
		t.Fatalf("only %d reconfigurations; the run is too short to check", len(probe.marks))
	}
	interval := cfg.ReconfigIntervalCycles
	var from uint64
	var worst float64
	misread := 0
	for k, m := range probe.marks {
		span := m.clock - from
		if busy := busyIn(reqs, from, m.clock); busy+m.idle != span {
			t.Errorf("reconfiguration %d: busy %d + credited idle %d != the slot's clock span %d", k, busy, m.idle, span)
		}
		from = m.clock

		reported := min(float64(m.idle)/float64(interval), 1)
		start := m.boundary - interval
		actual := 1 - float64(busyIn(reqs, start, m.boundary))/float64(interval)
		if d := max(reported-actual, actual-reported); d > 0.1 {
			misread++
			worst = max(worst, d)
		}
	}
	t.Logf("%d of %d intervals: IdleFraction off the slot's true idle share by > 0.1 (worst %.2f)", misread, len(probe.marks), worst)
}

// TestRequestPathDoesNotAllocate: the request record is sized up front, so
// recording an arrival, starting it and completing it allocate nothing.
func TestRequestPathDoesNotAllocate(t *testing.T) {
	lc := smallLC(t, "masstree")
	s, err := New(testConfig(), []AppSpec{{LC: &lc, Load: 0.2, MeanInterarrival: 60_000}}, policy.NewStaticLC())
	if err != nil {
		t.Fatal(err)
	}
	a := s.apps[0]
	const runs = 200
	if a.toGenerate <= 2*runs {
		t.Fatalf("slot generates only %d requests, want more than %d", a.toGenerate, 2*runs)
	}
	allocs := testing.AllocsPerRun(runs, func() {
		a.clock = a.reqs[a.generated].Arrival + coalesceDelayCycles
		a.enqueueArrivals(a.clock)
		if !a.inService {
			a.startNextRequest()
		}
		s.completeRequest(a)
	})
	if allocs != 0 {
		t.Errorf("request path allocates %.1f times per request, want 0", allocs)
	}
}

// TestCollectDerivesFromRecord hand-builds a slot's request record and
// checks what collect derives from it: warm-up requests stay out, the
// record keeps request order after the samples are sorted, latency is
// completion - arrival and service time completion - start, and the tail is
// the mean beyond the percentile, ties included.
func TestCollectDerivesFromRecord(t *testing.T) {
	lc := smallLC(t, "masstree")
	warm := queueing.Request{Arrival: 0, Start: 2_000, Completion: 9_999}
	served := func(arrival, start uint64, latency uint64) queueing.Request {
		return queueing.Request{Arrival: arrival, Start: start, Completion: arrival + latency}
	}
	cases := []struct {
		name                    string
		measured                []queueing.Request
		mean, service, tail     float64
		sortedLatencies, latsIn []float64
	}{
		{
			name: "mixed",
			measured: []queueing.Request{
				served(10_000, 10_010, 110),
				served(10_900, 10_900, 600),
				served(11_500, 11_500, 200),
				served(13_100, 13_100, 300),
			},
			mean: 302.5, service: 300, tail: 600,
			latsIn:          []float64{110, 600, 200, 300},
			sortedLatencies: []float64{110, 200, 300, 600},
		},
		{
			name: "all ties",
			measured: []queueing.Request{
				served(10_000, 10_000, 250), served(11_000, 11_000, 250),
				served(12_000, 12_000, 250), served(13_000, 13_000, 250),
			},
			mean: 250, service: 250, tail: 250,
			latsIn:          []float64{250, 250, 250, 250},
			sortedLatencies: []float64{250, 250, 250, 250},
		},
		{
			name: "tied tail",
			measured: []queueing.Request{
				served(10_000, 10_000, 400), served(11_000, 11_000, 10),
				served(12_000, 12_000, 400), served(13_000, 13_000, 10),
			},
			mean: 205, service: 205, tail: 400,
			latsIn:          []float64{400, 10, 400, 10},
			sortedLatencies: []float64{10, 10, 400, 400},
		},
	}
	for _, c := range cases {
		s, err := New(testConfig(), []AppSpec{{
			LC:             &lc,
			ArrivalTimes:   make([]uint64, 1+len(c.measured)),
			ExplicitWarmup: 1,
		}}, policy.NewLRU())
		if err != nil {
			t.Fatal(err)
		}
		a := s.apps[0]
		a.reqs = append([]queueing.Request{warm}, c.measured...)
		a.generated, a.served = len(a.reqs), len(a.reqs)
		got := s.collect().Apps[0]
		if got.Requests != uint64(len(c.measured)) || got.Latencies.Len() != len(c.measured) || got.ServiceTimes.Len() != len(c.measured) {
			t.Errorf("%s: %d requests, %d latencies, %d service times; want %d each (the warm-up stays out)",
				c.name, got.Requests, got.Latencies.Len(), got.ServiceTimes.Len(), len(c.measured))
		}
		if got.MeanLatency != c.mean || got.MeanServiceTime != c.service || got.TailLatency != c.tail {
			t.Errorf("%s: mean %v, service %v, tail %v; want %v, %v, %v",
				c.name, got.MeanLatency, got.MeanServiceTime, got.TailLatency, c.mean, c.service, c.tail)
		}
		if got.TailLatency < got.MeanLatency {
			t.Errorf("%s: tail %v below the mean %v", c.name, got.TailLatency, got.MeanLatency)
		}
		var arrivals []uint64
		for _, r := range c.measured {
			arrivals = append(arrivals, r.Arrival)
		}
		if !slices.Equal(got.RequestArrivals, arrivals) || !slices.Equal(got.RequestLatencies, c.latsIn) {
			t.Errorf("%s: record %v / %v, want %v / %v in request order", c.name, got.RequestArrivals, got.RequestLatencies, arrivals, c.latsIn)
		}
		if v := got.Latencies.Values(); !slices.Equal(v, c.sortedLatencies) {
			t.Errorf("%s: latency sample %v, want %v", c.name, v, c.sortedLatencies)
		}
	}
}

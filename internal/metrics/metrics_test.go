package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// TestExpositionGolden pins the exact text exposition: family ordering by
// name, child ordering by label signature regardless of registration order,
// label escaping, histogram expansion, HELP/TYPE lines.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()

	// Registered deliberately out of lexical order to prove sorting.
	r.Gauge("zz_gauge", "a gauge", L("tenant", "1")).Set(2.5)
	r.Counter("aa_ops_total", "ops", L("tenant", "1"), L("op", "get")).Add(7)
	r.Counter("aa_ops_total", "ops", L("op", "set"), L("tenant", "0")).Add(3)
	sc := r.ShardedCounter("mid_sharded_total", "sharded", 4)
	sc.Inc(0)
	sc.Inc(3)
	sc.Add(2, 5)
	h := r.Histogram("mid_hist_seconds", "latency", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(0.5)
	h.Observe(5)
	r.Counter("esc_total", "weird", L("path", "a\\b\"c\nd")).Inc()

	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	want := `# HELP aa_ops_total ops
# TYPE aa_ops_total counter
aa_ops_total{op="get",tenant="1"} 7
aa_ops_total{op="set",tenant="0"} 3
# HELP esc_total weird
# TYPE esc_total counter
esc_total{path="a\\b\"c\nd"} 1
# HELP mid_hist_seconds latency
# TYPE mid_hist_seconds histogram
mid_hist_seconds_bucket{le="0.1"} 1
mid_hist_seconds_bucket{le="1"} 3
mid_hist_seconds_bucket{le="+Inf"} 4
mid_hist_seconds_sum 6.05
mid_hist_seconds_count 4
# HELP mid_sharded_total sharded
# TYPE mid_sharded_total counter
mid_sharded_total 7
# HELP zz_gauge a gauge
# TYPE zz_gauge gauge
zz_gauge{tenant="1"} 2.5
`
	if got := sb.String(); got != want {
		t.Errorf("exposition mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestExpositionStableAcrossScrapes proves repeated scrapes render children
// in identical order (the insertion sort in register, not map iteration).
func TestExpositionStableAcrossScrapes(t *testing.T) {
	r := NewRegistry()
	for _, tenant := range []string{"3", "0", "2", "1"} {
		r.Counter("hits_total", "", L("tenant", tenant)).Inc()
	}
	var first string
	for i := 0; i < 10; i++ {
		var sb strings.Builder
		if err := r.WriteText(&sb); err != nil {
			t.Fatalf("WriteText: %v", err)
		}
		if i == 0 {
			first = sb.String()
			if !strings.Contains(first, "hits_total{tenant=\"0\"} 1\nhits_total{tenant=\"1\"} 1\n") {
				t.Fatalf("children not sorted by label:\n%s", first)
			}
			continue
		}
		if sb.String() != first {
			t.Fatalf("scrape %d differs from first:\n%s", i, sb.String())
		}
	}
}

// TestHistogramBucketBoundaries is the bucket-boundary table test: values
// exactly on a bound land in that bucket (le is inclusive), values past the
// last bound land in +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		v    float64
		want []uint64 // cumulative counts for bounds {1, 10, 100, +Inf}
	}{
		{0, []uint64{1, 1, 1, 1}},
		{1, []uint64{1, 1, 1, 1}},        // on-bound → inclusive
		{1.0001, []uint64{0, 1, 1, 1}},   // just past → next bucket
		{10, []uint64{0, 1, 1, 1}},       // on-bound
		{99.999, []uint64{0, 0, 1, 1}},   //
		{100, []uint64{0, 0, 1, 1}},      // last finite bound, inclusive
		{100.0001, []uint64{0, 0, 0, 1}}, // overflow → +Inf only
		{1e12, []uint64{0, 0, 0, 1}},
		{-5, []uint64{1, 1, 1, 1}}, // below all bounds → first bucket
	}
	for _, tc := range cases {
		r := NewRegistry()
		h := r.Histogram("h", "", []float64{1, 10, 100})
		h.Observe(tc.v)
		bounds, cum := h.CumulativeBuckets()
		if len(bounds) != 4 || !math.IsInf(bounds[3], 1) {
			t.Fatalf("Observe(%v): bounds = %v, want 3 finite + +Inf", tc.v, bounds)
		}
		for i := range cum {
			if cum[i] != tc.want[i] {
				t.Errorf("Observe(%v): cumulative = %v, want %v", tc.v, cum, tc.want)
				break
			}
		}
		if h.Count() != 1 {
			t.Errorf("Observe(%v): Count = %d, want 1", tc.v, h.Count())
		}
		if h.Sum() != tc.v {
			t.Errorf("Observe(%v): Sum = %v, want %v", tc.v, h.Sum(), tc.v)
		}
	}
}

// TestHistogramRejectsBadBounds pins the registration-time panics.
func TestHistogramRejectsBadBounds(t *testing.T) {
	for name, bounds := range map[string][]float64{
		"descending": {10, 1},
		"duplicate":  {1, 1},
		"nan":        {math.NaN()},
		"inf":        {1, math.Inf(1)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s bounds %v: expected panic", name, bounds)
				}
			}()
			NewRegistry().Histogram("h", "", bounds)
		}()
	}
}

// TestRegistryRejectsInvalid pins name/label validation and kind clashes.
func TestRegistryRejectsInvalid(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	expectPanic("bad name", func() { NewRegistry().Counter("9bad", "") })
	expectPanic("bad label key", func() { NewRegistry().Counter("ok", "", L("bad-key", "v")) })
	expectPanic("dup label key", func() { NewRegistry().Counter("ok", "", L("k", "a"), L("k", "b")) })
	expectPanic("kind clash", func() {
		r := NewRegistry()
		r.Counter("x", "")
		r.Gauge("x", "")
	})
}

// TestRegisterIdempotent proves re-registering a (name, labels) pair returns
// the same instrument, so packages can look metrics up instead of caching.
func TestRegisterIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("c_total", "", L("t", "0"))
	b := r.Counter("c_total", "", L("t", "0"))
	if a != b {
		t.Fatal("re-registration returned a different counter")
	}
	a.Add(2)
	if b.Value() != 2 {
		t.Fatalf("aliased counter reads %d, want 2", b.Value())
	}
	h1 := r.Histogram("h", "", []float64{1, 2})
	h2 := r.Histogram("h", "", []float64{5, 6}) // bounds ignored on re-registration
	if h1 != h2 {
		t.Fatal("re-registration returned a different histogram")
	}
}

// TestOnCollect proves collectors run before every scrape, under the lock.
func TestOnCollect(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("synced_total", "")
	var authoritative uint64
	r.OnCollect(func() { c.Set(authoritative) })

	authoritative = 42
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	if !strings.Contains(sb.String(), "synced_total 42\n") {
		t.Errorf("collector did not sync before scrape:\n%s", sb.String())
	}
	authoritative = 99
	sb.Reset()
	if err := r.WriteText(&sb); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	if !strings.Contains(sb.String(), "synced_total 99\n") {
		t.Errorf("collector did not sync before the second scrape:\n%s", sb.String())
	}
}

// TestConcurrentWritersAndScraper is the -race soak: hammer every instrument
// kind from several goroutines while a scraper loops WriteText,
// then check conservation (no lost updates).
func TestConcurrentWritersAndScraper(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("soak_ops_total", "")
	sc := r.ShardedCounter("soak_sharded_total", "", 8)
	g := r.Gauge("soak_gauge", "")
	h := r.Histogram("soak_lat_seconds", "", []float64{0.001, 0.01, 0.1})

	const writers = 8
	const perWriter = 5000
	stop := make(chan struct{})
	var scraperDone sync.WaitGroup
	scraperDone.Add(1)
	go func() {
		defer scraperDone.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var sb strings.Builder
			if err := r.WriteText(&sb); err != nil {
				t.Errorf("WriteText during soak: %v", err)
				return
			}
		}
	}()
	var writersDone sync.WaitGroup
	for w := 0; w < writers; w++ {
		writersDone.Add(1)
		go func(w int) {
			defer writersDone.Done()
			for i := 0; i < perWriter; i++ {
				c.Inc()
				sc.Inc(w)
				g.Add(1)
				h.Observe(float64(i%100) / 1000)
			}
		}(w)
	}
	writersDone.Wait()
	close(stop)
	scraperDone.Wait()

	if c.Value() != writers*perWriter {
		t.Errorf("counter = %d, want %d", c.Value(), writers*perWriter)
	}
	if sc.Value() != writers*perWriter {
		t.Errorf("sharded counter = %d, want %d", sc.Value(), writers*perWriter)
	}
	if g.Value() != writers*perWriter {
		t.Errorf("gauge = %v, want %d", g.Value(), writers*perWriter)
	}
	if h.Count() != writers*perWriter {
		t.Errorf("histogram count = %d, want %d", h.Count(), writers*perWriter)
	}
	_, cum := h.CumulativeBuckets()
	if cum[len(cum)-1] != writers*perWriter {
		t.Errorf("histogram +Inf cumulative = %d, want %d", cum[len(cum)-1], writers*perWriter)
	}
}

// TestWriteSideDoesNotAllocate enforces the zero-allocation contract on
// every hot-path write operation.
func TestWriteSideDoesNotAllocate(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("alloc_c_total", "")
	sc := r.ShardedCounter("alloc_sc_total", "", 8)
	g := r.Gauge("alloc_g", "")
	h := r.Histogram("alloc_h", "", DurationBuckets())

	for name, fn := range map[string]func(){
		"Counter.Inc":        func() { c.Inc() },
		"Counter.Add":        func() { c.Add(3) },
		"ShardedCounter.Add": func() { sc.Add(5, 2) },
		"Gauge.Set":          func() { g.Set(1.5) },
		"Gauge.Add":          func() { g.Add(0.5) },
		"Histogram.Observe":  func() { h.Observe(0.0042) },
	} {
		if allocs := testing.AllocsPerRun(1000, fn); allocs != 0 {
			t.Errorf("%s allocates %.1f per op, want 0", name, allocs)
		}
	}
}

// TestShardedCounterWraps proves out-of-range shard indices wrap instead of
// panicking (callers pass raw shard ids).
func TestShardedCounterWraps(t *testing.T) {
	r := NewRegistry()
	sc := r.ShardedCounter("wrap_total", "", 3) // rounds up to 4 slots
	for i := 0; i < 100; i++ {
		sc.Inc(i)
	}
	if sc.Value() != 100 {
		t.Fatalf("Value = %d, want 100", sc.Value())
	}
}

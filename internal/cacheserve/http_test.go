package cacheserve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
)

// instrumentedPair builds a sampled two-tenant cache with a metrics registry
// and a Ubik governor, drives enough traffic and epochs that every family has
// data, and returns all three.
func instrumentedPair(t *testing.T) (*Cache, *Governor, *metrics.Registry) {
	t.Helper()
	reg := metrics.NewRegistry()
	c := mustNew(t, testConfig(func(cfg *Config) {
		cfg.SampleRate = 1
		cfg.UMONSampleSets = 1024
		cfg.Metrics = reg
	}))
	gov, err := NewGovernor(c, core.NewUbik(), GovernorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	val := make([]byte, 64)
	keys := benchKeySpace(4096)
	for i := 0; i < 2000; i++ {
		k := keys[i%len(keys)]
		c.Set(0, k, val, 0)
		c.Get(0, k)
		c.Get(1, k) // tenant 1 misses
	}
	c.Delete(0, keys[0])
	c.Sweep()
	for e := 0; e < 3; e++ {
		if _, err := gov.Step(); err != nil {
			t.Fatalf("Step: %v", err)
		}
	}
	return c, gov, reg
}

func TestHTTPMetricsEndpoint(t *testing.T) {
	c, gov, reg := instrumentedPair(t)
	srv := httptest.NewServer(NewHTTPHandler(c, gov, reg))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	// The family set is the DESIGN.md §12 contract — the same names the CI
	// e2e scrape asserts on.
	for _, family := range []string{
		"cacheserve_ops_total",
		"cacheserve_tenant_hits_total",
		"cacheserve_tenant_misses_total",
		"cacheserve_tenant_sets_total",
		"cacheserve_tenant_evictions_total",
		"cacheserve_tenant_bytes_used",
		"cacheserve_tenant_quota_bytes",
		"cacheserve_tenant_keys",
		"cacheserve_tenant_sampled_accesses_total",
		"cacheserve_tenant_fed_accesses_total",
		"cacheserve_sweep_passes_total",
		"governor_epochs_total",
		"governor_epoch_duration_seconds_bucket",
		"governor_tenant_quota_bytes",
		"governor_tenant_quota_delta_bytes_total",
	} {
		if !strings.Contains(body, family) {
			t.Errorf("scrape missing family %s", family)
		}
	}
	if !strings.Contains(body, `cacheserve_ops_total{op="get"}`) {
		t.Error("scrape missing op=get child")
	}
	if !strings.Contains(body, `tenant="lc"`) || !strings.Contains(body, `tenant="batch"`) {
		t.Error("scrape missing tenant labels")
	}
	if !strings.Contains(body, "governor_epochs_total 3") {
		t.Error("governor_epochs_total should read 3 after 3 steps")
	}
}

func TestHTTPDebugTenants(t *testing.T) {
	c, gov, reg := instrumentedPair(t)
	srv := httptest.NewServer(NewHTTPHandler(c, gov, reg))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/tenants")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var p DebugPayload
	if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if p.CapacityBytes != c.cfg.CapacityBytes {
		t.Errorf("CapacityBytes = %d, want %d", p.CapacityBytes, c.cfg.CapacityBytes)
	}
	if len(p.Tenants) != 2 || p.Tenants[0].Name != "lc" || p.Tenants[1].Name != "batch" {
		t.Fatalf("tenants = %+v", p.Tenants)
	}
	lc := p.Tenants[0]
	if lc.Hits == 0 || lc.HitRatio <= 0 || lc.HitRatio > 1 {
		t.Errorf("lc hit accounting: hits=%d ratio=%v", lc.Hits, lc.HitRatio)
	}
	if lc.SampledAccesses == 0 || lc.FedAccesses == 0 || lc.FedAccesses > lc.SampledAccesses {
		t.Errorf("sampling ratio: presented=%d fed=%d", lc.SampledAccesses, lc.FedAccesses)
	}
	if len(lc.MissProb) != epochCurvePoints || lc.CurveTotalLines == 0 {
		t.Errorf("lc miss curve not exported: %d points, %d lines", len(lc.MissProb), lc.CurveTotalLines)
	}
	if len(p.Epochs) != 3 {
		t.Fatalf("epochs served = %d, want 3", len(p.Epochs))
	}
	// Newest first, and each decision carries both sides: curves in, quotas out.
	if p.Epochs[0].Epoch != 3 || p.Epochs[2].Epoch != 1 {
		t.Errorf("epoch order: got %d..%d, want 3..1", p.Epochs[0].Epoch, p.Epochs[2].Epoch)
	}
	for _, tn := range p.Epochs[0].Tenants {
		if len(tn.MissProb) != epochCurvePoints {
			t.Errorf("tenant %s decision curve has %d points", tn.Name, len(tn.MissProb))
		}
		if tn.NewQuotaBytes <= 0 {
			t.Errorf("tenant %s decision has no applied quota", tn.Name)
		}
	}
}

func TestHTTPPprofEndpoint(t *testing.T) {
	c, gov, reg := instrumentedPair(t)
	srv := httptest.NewServer(NewHTTPHandler(c, gov, reg))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/ status = %d", resp.StatusCode)
	}
}

func TestLastEpochsBoundedNewestFirst(t *testing.T) {
	c := mustNew(t, testConfig(func(cfg *Config) {
		cfg.SampleRate = 1
	}))
	gov, err := NewGovernor(c, core.NewUbik(), GovernorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < epochRingCap+5; i++ {
		if _, err := gov.Step(); err != nil {
			t.Fatal(err)
		}
	}
	all := gov.LastEpochs(epochRingCap * 2)
	if len(all) != epochRingCap {
		t.Fatalf("ring kept %d, want %d", len(all), epochRingCap)
	}
	if all[0].Epoch != uint64(epochRingCap+5) {
		t.Errorf("newest epoch = %d, want %d", all[0].Epoch, epochRingCap+5)
	}
	for i := 1; i < len(all); i++ {
		if all[i].Epoch != all[i-1].Epoch-1 {
			t.Fatalf("epochs not consecutive newest-first at %d: %d after %d", i, all[i].Epoch, all[i-1].Epoch)
		}
	}
	if got := gov.LastEpochs(2); len(got) != 2 || got[0].Epoch != uint64(epochRingCap+5) {
		t.Errorf("LastEpochs(2) = %d entries, first %d", len(got), got[0].Epoch)
	}
}

// TestCloseStopsBackgroundGoroutines is the lifecycle satellite: a cache with
// a live sweeper plus a started governor must release both goroutines on
// Stop/Close — asserted by goroutine count so a leak fails under -race too.
func TestCloseStopsBackgroundGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	c, err := New(testConfig(func(cfg *Config) {
		cfg.SweepInterval = time.Millisecond
		cfg.SampleRate = 1
	}))
	if err != nil {
		t.Fatal(err)
	}
	gov, err := NewGovernor(c, core.NewUbik(), GovernorConfig{Epoch: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	gov.Start()
	gov.Start() // idempotent
	time.Sleep(5 * time.Millisecond)
	gov.Stop()
	gov.Stop() // idempotent
	c.Close()

	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestInstrumentedAccessDoesNotAllocate holds the hot path to exact
// allocation counts, with and without a metrics registry: Get allocates
// nothing whether it hits, misses or expires an entry, and Set allocates
// exactly once (the copy of the caller's value) whether it inserts,
// overwrites or evicts. Without an OnEvict callback no eviction batch is
// built.
func TestInstrumentedAccessDoesNotAllocate(t *testing.T) {
	const runs = 1000
	val := make([]byte, 64)
	render := func(prefix string) []string {
		keys := make([]string, runs+1) // AllocsPerRun calls f once more to warm up
		for i := range keys {
			keys[i] = fmt.Sprintf("%s%04d", prefix, i)
		}
		return keys
	}
	keys, old := render("k"), render("o")
	for _, instrumented := range []bool{false, true} {
		clk := &fakeClock{now: 1}
		configure := func(cfg *Config) {
			cfg.Clock = clk.Now
			if instrumented {
				cfg.Metrics = metrics.NewRegistry()
			}
		}
		allocs := func(op string, want float64, f func(key string)) {
			t.Helper()
			i := 0
			if n := testing.AllocsPerRun(runs, func() { f(keys[i]); i++ }); n != want {
				t.Errorf("%s (instrumented %v): %v allocs/op, want %v", op, instrumented, n, want)
			}
		}
		c := mustNew(t, testConfig(configure))
		// Size the slabs and indexes first, so inserts below reuse free slots.
		for _, k := range keys {
			c.Set(0, k, val, 0)
			c.Delete(0, k)
		}
		allocs("Set insert", 1, func(k string) { c.Set(0, k, val, 0) })
		allocs("Set overwrite", 1, func(k string) { c.Set(0, k, val, time.Second) })
		allocs("Get hit", 0, func(k string) { c.Get(0, k) })
		allocs("Get miss", 0, func(k string) { c.Get(1, k) })
		clk.Advance(2 * time.Second)
		allocs("Get expired", 0, func(k string) { c.Get(0, k) })
		if st := c.Stats()[0]; st.Expirations != runs+1 {
			t.Errorf("expiring gets expired %d entries, want %d", st.Expirations, runs+1)
		}

		// One shard holding exactly len(old) entries: every new key evicts one.
		full := mustNew(t, testConfig(func(cfg *Config) {
			configure(cfg)
			cfg.Shards = 1
			cfg.CapacityBytes = int64(len(old)) * EntrySize(old[0], val)
			cfg.Tenants = []TenantConfig{{Name: "only"}}
		}))
		for _, k := range old {
			if err := full.Set(0, k, val, 0); err != nil {
				t.Fatal(err)
			}
		}
		allocs("Set evicting insert", 1, func(k string) { full.Set(0, k, val, 0) })
		if st := full.Stats()[0]; st.CapacityEvictions != runs+1 {
			t.Errorf("evicting inserts evicted %d entries, want %d", st.CapacityEvictions, runs+1)
		}
	}
}

package cacheserve

import (
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/tracein"
)

func replayCache(t testing.TB, tenants int) *Cache {
	t.Helper()
	cfgs := make([]TenantConfig, tenants)
	for i := range cfgs {
		cfgs[i] = TenantConfig{Name: "t" + string(rune('0'+i))}
	}
	c, err := New(Config{CapacityBytes: 16 << 20, Shards: 8, Tenants: cfgs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// TestReplayerValidation covers the constructor's rejections: wrong trace
// kind, more trace tenants than cache tenants, and a sparse giant key that
// would defeat the prerendered dense key tables.
func TestReplayerValidation(t *testing.T) {
	mem, err := tracein.GenerateTrace(tracein.GenSpec{
		Kind: tracein.KindMem, Gen: tracein.GenZipf, Records: 100, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewReplayer(replayCache(t, 1), mem); err == nil || !strings.Contains(err.Error(), "kv trace") {
		t.Errorf("mem trace error = %v, want a kv-kind complaint", err)
	}

	kv2, err := tracein.GenerateTrace(tracein.GenSpec{
		Kind: tracein.KindKV, Gen: tracein.GenZipf, Records: 100, Apps: 2, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewReplayer(replayCache(t, 1), kv2); err == nil || !strings.Contains(err.Error(), "2 tenants") {
		t.Errorf("tenant-overflow error = %v, want the tenant counts", err)
	}

	sparse, err := tracein.FromRecords(tracein.KindKV, 1, []tracein.Record{
		{Cycle: 1, Op: tracein.OpGet, Key: 1 << 40},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewReplayer(replayCache(t, 1), sparse); err == nil || !strings.Contains(err.Error(), "caps") {
		t.Errorf("sparse-key error = %v, want the key-table cap", err)
	}
}

// TestReplayerCounts replays a hand-built trace and checks the per-tenant
// gets/sets/hits bookkeeping, including wrapping past the end of the trace.
func TestReplayerCounts(t *testing.T) {
	recs := []tracein.Record{
		{Cycle: 1, App: 0, Op: tracein.OpSet, Size: 64, Key: 1},
		{Cycle: 2, App: 1, Op: tracein.OpGet, Key: 1},
		{Cycle: 3, App: 0, Op: tracein.OpGet, Key: 1},
		{Cycle: 4, App: 1, Op: tracein.OpSet, Size: 32, Key: 2},
	}
	tr, err := tracein.FromRecords(tracein.KindKV, 2, recs)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := NewReplayer(replayCache(t, 2), tr)
	if err != nil {
		t.Fatal(err)
	}
	// Two full passes: record counts double.
	ts, err := rp.Run(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ts[0].Sets != 2 || ts[0].Gets != 2 || ts[1].Sets != 2 || ts[1].Gets != 2 {
		t.Fatalf("per-tenant counts = %+v, want 2 gets and 2 sets each", ts)
	}
	// Tenant 0's get follows its own set, so it hits; tenant 1's first-pass
	// get precedes any t1 store of key 1, fills on miss, and hits on pass two.
	if ts[0].Hits != 2 {
		t.Errorf("tenant 0 hits = %d, want 2 (set precedes both gets)", ts[0].Hits)
	}
	if ts[1].Hits != 1 {
		t.Errorf("tenant 1 hits = %d, want 1 (miss-fill on pass one, hit on pass two)", ts[1].Hits)
	}

	if _, err := rp.Run(0, 1); err == nil {
		t.Error("Run accepted zero ops")
	}
}

// TestReplayerCountsRejectedSets checks that a Set the cache refuses is
// counted, whether the trace recorded it or it fills a miss: a refused Set
// must not pass for a stored one.
func TestReplayerCountsRejectedSets(t *testing.T) {
	const huge = 3 << 20 // over the 2 MiB per-shard quota of a one-tenant replayCache
	tr, err := tracein.FromRecords(tracein.KindKV, 1, []tracein.Record{
		{Cycle: 1, Op: tracein.OpSet, Size: huge, Key: 1},
		{Cycle: 2, Op: tracein.OpGet, Key: 1},
		{Cycle: 3, Op: tracein.OpSet, Size: 64, Key: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	rp, err := NewReplayer(replayCache(t, 1), tr)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := rp.Run(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The recorded huge set and the get's fill (sized to the largest set)
	// are refused; the small set is stored.
	if s := ts[0]; s.Sets != 2 || s.Gets != 1 || s.Hits != 0 || s.Rejected != 2 {
		t.Fatalf("stats = %+v, want 2 sets, 1 get, 0 hits, 2 rejected", s)
	}
}

// TestReplayLatencySamplesEveryTenant pins the latency stride against
// aliasing: a recording that alternates two tenants, replayed by two workers,
// must yield latency samples for both tenants (a stride sharing a factor with
// the tenant or worker count only ever times tenant 0).
func TestReplayLatencySamplesEveryTenant(t *testing.T) {
	recs := []tracein.Record{
		{Cycle: 1, App: 0, Op: tracein.OpGet, Key: 1},
		{Cycle: 2, App: 1, Op: tracein.OpGet, Key: 1},
	}
	tr, err := tracein.FromRecords(tracein.KindKV, 2, recs)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := NewReplayer(replayCache(t, 2), tr)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := rp.Run(8*replayLatencyStride, 2)
	if err != nil {
		t.Fatal(err)
	}
	for tenant, s := range ts {
		if s.Latency.Len() == 0 {
			t.Errorf("tenant %d has no latency samples out of %d gets", tenant, s.Gets)
		}
	}
}

// BenchmarkTraceReplay measures replayed-trace throughput end to end through
// the file format: the trace is written to disk and reopened (exercising the
// mmap fast path), the replayer preps its tables outside the timer, and the
// measured region is pure replay traffic.
func BenchmarkTraceReplay(b *testing.B) {
	path := filepath.Join(b.TempDir(), "bench.trace")
	if _, err := tracein.GenerateFile(path, tracein.GenSpec{
		Kind: tracein.KindKV, Gen: tracein.GenMixed,
		Records: 200_000, Apps: 2, Keys: 100_000, Seed: 1,
	}); err != nil {
		b.Fatal(err)
	}
	tr, err := tracein.Open(path)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { tr.Close() })
	rp, err := NewReplayer(replayCache(b, 2), tr)
	if err != nil {
		b.Fatal(err)
	}
	// One warm pass so the steady state, not cold fills, is measured.
	if _, err := rp.Run(tr.Len(), runtime.GOMAXPROCS(0)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	ts, err := rp.Run(b.N, runtime.GOMAXPROCS(0))
	if err != nil {
		b.Fatal(err)
	}
	var hits, gets uint64
	for _, s := range ts {
		hits += s.Hits
		gets += s.Gets
	}
	if gets > 0 {
		b.ReportMetric(float64(hits)/float64(gets), "hit-ratio")
	}
}

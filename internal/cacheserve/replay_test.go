package cacheserve

import (
	"fmt"
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

// TestReplayDeterministicAcrossGoroutines: with no governor moving quotas,
// a shard-affine replay leaves the same counters and cache state at any
// goroutine count, since each shard sees its operations in trace order.
func TestReplayDeterministicAcrossGoroutines(t *testing.T) {
	tr, err := tracein.GenerateTrace(tracein.GenSpec{
		Kind: tracein.KindKV, Gen: tracein.GenMixed,
		Records: 30_000, Apps: 2, Keys: 20_000, SetFrac: 0.25, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		replay []ReplayTenantStats
		cache  []TenantStats
	}
	replay := func(goroutines int) result {
		// 1 MiB against a working set several times larger, so the LRU
		// evicts throughout; ops wrap the recording once.
		c, err := New(Config{CapacityBytes: 1 << 20, Shards: 8, Tenants: []TenantConfig{{Name: "a"}, {Name: "b"}}})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		rp, err := NewReplayer(c, tr)
		if err != nil {
			t.Fatal(err)
		}
		ts, err := rp.Run(2*tr.Len(), goroutines)
		if err != nil {
			t.Fatal(err)
		}
		return result{ts, c.Stats()}
	}
	want := replay(1)
	var hits, evictions uint64
	for _, cs := range want.cache {
		hits += cs.Hits
		evictions += cs.CapacityEvictions
	}
	if hits == 0 || evictions == 0 {
		t.Fatalf("%d hits, %d evictions at G=1; the trace must both hit and evict", hits, evictions)
	}
	for _, g := range []int{2, 3, 4, 8} {
		got := replay(g)
		for tenant := range want.replay {
			w, r := want.replay[tenant], got.replay[tenant]
			if r.Gets != w.Gets || r.Sets != w.Sets || r.Hits != w.Hits || r.Rejected != w.Rejected {
				t.Errorf("G=%d tenant %d: gets/sets/hits/rejected = %d/%d/%d/%d, G=1 gave %d/%d/%d/%d",
					g, tenant, r.Gets, r.Sets, r.Hits, r.Rejected, w.Gets, w.Sets, w.Hits, w.Rejected)
			}
			wc, rc := want.cache[tenant], got.cache[tenant]
			if rc.Hits != wc.Hits || rc.Misses != wc.Misses || rc.CapacityEvictions != wc.CapacityEvictions || rc.BytesUsed != wc.BytesUsed {
				t.Errorf("G=%d tenant %d: cache hits/misses/evictions/bytes = %d/%d/%d/%d, G=1 gave %d/%d/%d/%d",
					g, tenant, rc.Hits, rc.Misses, rc.CapacityEvictions, rc.BytesUsed, wc.Hits, wc.Misses, wc.CapacityEvictions, wc.BytesUsed)
			}
		}
	}
}

// TestReplayFeedDeterministicAcrossGoroutines: each tenant shard counts its
// own sampling stride under its lock, so which ops reach a tenant's UMON
// depends only on each shard's trace-order op stream, not on how the
// replay's goroutines interleave. HitsAtWay and SampledMisses are left out:
// two shards can feed one UMON set, so the order of their forwards within
// the set, and with it the set's LRU stack, still depends on timing.
func TestReplayFeedDeterministicAcrossGoroutines(t *testing.T) {
	tr, err := tracein.GenerateTrace(tracein.GenSpec{
		Kind: tracein.KindKV, Gen: tracein.GenMixed,
		Records: 30_000, Apps: 2, Keys: 20_000, SetFrac: 0.25, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	type feedCounts struct{ total, sampled, presented uint64 }
	replay := func(goroutines int) []feedCounts {
		c, err := New(Config{CapacityBytes: 1 << 20, Shards: 8, SampleRate: 0.05,
			Tenants: []TenantConfig{{Name: "a"}, {Name: "b"}}})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		rp, err := NewReplayer(c, tr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rp.Run(2*tr.Len(), goroutines); err != nil {
			t.Fatal(err)
		}
		out := make([]feedCounts, c.NumTenants())
		for tenant := range out {
			f := c.Feed(tenant)
			snap := f.Snapshot()
			out[tenant] = feedCounts{snap.TotalAccesses, snap.SampledAccesses, f.Presented()}
		}
		return out
	}
	want := replay(1)
	for _, w := range want {
		if w.sampled == 0 {
			t.Fatalf("G=1 fed no access into a sampled set: %+v", want)
		}
	}
	for _, g := range []int{1, 2, 3, 4, 8} {
		for run := 0; run < 3; run++ {
			got := replay(g)
			for tenant := range want {
				if got[tenant] != want[tenant] {
					t.Errorf("G=%d run %d tenant %d: fed/sampled-set/presented = %d/%d/%d, G=1 gave %d/%d/%d",
						g, run, tenant, got[tenant].total, got[tenant].sampled, got[tenant].presented,
						want[tenant].total, want[tenant].sampled, want[tenant].presented)
				}
			}
		}
	}
}

// TestReplayKeyTable checks the prerendered fixed-width key table against
// the format it replaces, and its hashes against the ones Get and Set
// compute, for tenant names of several lengths.
func TestReplayKeyTable(t *testing.T) {
	names := []string{"a", "t1", "latency-critical"}
	cfgs := make([]TenantConfig, len(names))
	var recs []tracein.Record
	for i, name := range names {
		cfgs[i] = TenantConfig{Name: name}
		// Tenant i's largest key differs per tenant.
		recs = append(recs, tracein.Record{Cycle: uint64(len(recs)), App: uint32(i), Op: tracein.OpGet, Key: uint64(1000 * (i + 1))})
	}
	c, err := New(Config{CapacityBytes: 1 << 20, Shards: 8, Tenants: cfgs})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tr, err := tracein.FromRecords(tracein.KindKV, len(names), recs)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := NewReplayer(c, tr)
	if err != nil {
		t.Fatal(err)
	}
	for tenant, name := range names {
		rk := &rp.tenants[tenant]
		largest := uint64(1000 * (tenant + 1))
		if got := len(rk.hashes); got != int(largest)+1 {
			t.Errorf("%s: table holds %d keys, want %d", name, got, largest+1)
		}
		for _, k := range []uint64{0, 1, largest} {
			want := fmt.Sprintf("%s-%07d", name, k)
			if got := rk.key(k); got != want {
				t.Errorf("%s: key %d = %q, want %q", name, k, got, want)
			}
			if got, want := rk.hashes[k], hashKey(tenant, want); got != want {
				t.Errorf("%s: hash of key %d = %#x, want hashKey's %#x", name, k, got, want)
			}
		}
		// The largest key any table may hold renders through the same
		// code at the same width (a full table would take ~150 MB).
		buf := make([]byte, rk.width)
		putReplayKey(buf, name, maxReplayKey-1)
		if want := fmt.Sprintf("%s-%07d", name, maxReplayKey-1); string(buf) != want {
			t.Errorf("%s: key %d = %q, want %q", name, maxReplayKey-1, buf, want)
		}
	}
}

// TestMaxReplayKeyFitsKeyWidth: every key renders as exactly seven digits,
// so the fixed-width key table breaks silently once keys reach 10⁷.
func TestMaxReplayKeyFitsKeyWidth(t *testing.T) {
	if maxReplayKey >= 10_000_000 {
		t.Fatalf("maxReplayKey = %d; keys of eight or more digits overflow the table's fixed width", maxReplayKey)
	}
}

// BenchmarkTraceReplay measures replayed-trace throughput end to end through
// the file format: the trace is written to disk and reopened (exercising the
// mmap fast path), the replayer preps its tables outside the timer, and the
// measured region is pure replay traffic. The g1 and gN (GOMAXPROCS)
// sub-benchmarks replay the same warmed cache, so side by side they show how
// the shard-affine workers scale.
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
	for _, bc := range []struct {
		name       string
		goroutines int
	}{{"g1", 1}, {"gN", runtime.GOMAXPROCS(0)}} {
		b.Run(bc.name, func(b *testing.B) {
			ts, err := rp.Run(b.N, bc.goroutines)
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
		})
	}
}

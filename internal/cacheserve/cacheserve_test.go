package cacheserve

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/monitor"
)

// fakeClock is an injectable nanosecond clock for deterministic expiry.
type fakeClock struct{ now int64 }

func (f *fakeClock) Now() int64              { return f.now }
func (f *fakeClock) Advance(d time.Duration) { f.now += int64(d) }

func testConfig(mutate func(*Config)) Config {
	cfg := Config{
		CapacityBytes: 1 << 20,
		Shards:        4,
		Tenants: []TenantConfig{
			{Name: "lc", LatencyCritical: true, TargetBytes: 1 << 19},
			{Name: "batch"},
		},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	return cfg
}

func mustNew(t *testing.T, cfg Config) *Cache {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"ok", nil, ""},
		{"no capacity", func(c *Config) { c.CapacityBytes = 0 }, "CapacityBytes"},
		{"negative shards", func(c *Config) { c.Shards = -1 }, "Shards"},
		{"bad sample rate", func(c *Config) { c.SampleRate = 1.5 }, "SampleRate"},
		{"no tenants", func(c *Config) { c.Tenants = nil }, "at least one tenant"},
		{"unnamed tenant", func(c *Config) { c.Tenants[1].Name = "" }, "no name"},
		{"duplicate name", func(c *Config) { c.Tenants[1].Name = "lc" }, "duplicate"},
		{"lc without target", func(c *Config) { c.Tenants[0].TargetBytes = 0 }, "TargetBytes"},
		{"negative penalty", func(c *Config) { c.Tenants[1].MissPenalty = -1 }, "MissPenalty"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := testConfig(tc.mutate).Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
}

func TestShardCountRoundsToPowerOfTwo(t *testing.T) {
	for _, in := range []int{1, 2, 3, 5, 8, 9, 64} {
		c := mustNew(t, testConfig(func(cfg *Config) { cfg.Shards = in }))
		n := c.NumShards()
		if n&(n-1) != 0 || n < in {
			t.Errorf("Shards=%d: got %d shards, want power of two >= %d", in, n, in)
		}
	}
}

func TestSetGetDelete(t *testing.T) {
	c := mustNew(t, testConfig(nil))
	if _, ok := c.Get(0, "k"); ok {
		t.Fatal("got value before any Set")
	}
	if err := c.Set(0, "k", []byte("v1"), 0); err != nil {
		t.Fatalf("Set: %v", err)
	}
	if v, ok := c.Get(0, "k"); !ok || string(v) != "v1" {
		t.Fatalf("Get = %q, %v; want v1, true", v, ok)
	}
	// Same key under the other tenant is a distinct namespace.
	if _, ok := c.Get(1, "k"); ok {
		t.Fatal("tenant 1 sees tenant 0's key")
	}
	if err := c.Set(0, "k", []byte("v2"), 0); err != nil {
		t.Fatalf("overwrite: %v", err)
	}
	if v, _ := c.Get(0, "k"); string(v) != "v2" {
		t.Fatalf("after overwrite Get = %q, want v2", v)
	}
	if !c.Delete(0, "k") {
		t.Fatal("Delete reported missing key")
	}
	if c.Delete(0, "k") {
		t.Fatal("second Delete reported present key")
	}
	if _, ok := c.Get(0, "k"); ok {
		t.Fatal("Get after Delete")
	}
	if err := c.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSetCopiesValue(t *testing.T) {
	c := mustNew(t, testConfig(nil))
	buf := []byte("original")
	if err := c.Set(0, "k", buf, 0); err != nil {
		t.Fatal(err)
	}
	copy(buf, "XXXXXXXX")
	if v, _ := c.Get(0, "k"); string(v) != "original" {
		t.Fatalf("stored value aliased the caller's buffer: %q", v)
	}
}

func TestGetResultStableAcrossOverwrite(t *testing.T) {
	// A Get result is a snapshot: an overwrite must install a fresh buffer,
	// never rewrite the one earlier readers still hold.
	c := mustNew(t, testConfig(nil))
	if err := c.Set(0, "k", []byte("before"), 0); err != nil {
		t.Fatal(err)
	}
	v, ok := c.Get(0, "k")
	if !ok {
		t.Fatal("Get missed")
	}
	if err := c.Set(0, "k", []byte("after!"), 0); err != nil {
		t.Fatal(err)
	}
	if string(v) != "before" {
		t.Fatalf("earlier Get result mutated by overwrite: %q", v)
	}
}

func TestTenantRangeChecks(t *testing.T) {
	c := mustNew(t, testConfig(nil))
	if err := c.Set(2, "k", nil, 0); err == nil {
		t.Fatal("Set accepted out-of-range tenant")
	}
	if _, ok := c.Get(-1, "k"); ok {
		t.Fatal("Get accepted out-of-range tenant")
	}
	if c.Delete(99, "k") {
		t.Fatal("Delete accepted out-of-range tenant")
	}
}

func TestLazyExpiry(t *testing.T) {
	clk := &fakeClock{now: 1}
	var evicted []Eviction
	c := mustNew(t, testConfig(func(cfg *Config) {
		cfg.Clock = clk.Now
		cfg.OnEvict = func(ev Eviction) { evicted = append(evicted, ev) }
	}))
	if err := c.Set(0, "k", []byte("v"), time.Second); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(0, "k"); !ok {
		t.Fatal("fresh entry expired")
	}
	clk.Advance(2 * time.Second)
	if _, ok := c.Get(0, "k"); ok {
		t.Fatal("expired entry still served")
	}
	if len(evicted) != 1 || evicted[0].Reason != ReasonExpired || evicted[0].Key != "k" {
		t.Fatalf("expiry callback = %+v", evicted)
	}
	st := c.Stats()[0]
	if st.Expirations != 1 || st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("stats after expiry: %+v", st)
	}
	if err := c.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultTTLAndPinned(t *testing.T) {
	clk := &fakeClock{now: 1}
	c := mustNew(t, testConfig(func(cfg *Config) {
		cfg.Clock = clk.Now
		cfg.DefaultTTL = time.Second
	}))
	if err := c.Set(0, "default", []byte("v"), 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Set(0, "pinned", []byte("v"), -1); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Hour)
	if _, ok := c.Get(0, "default"); ok {
		t.Fatal("DefaultTTL not applied to ttl=0 Set")
	}
	if _, ok := c.Get(0, "pinned"); !ok {
		t.Fatal("negative ttl should pin the entry")
	}
}

func TestSweepRemovesExpired(t *testing.T) {
	clk := &fakeClock{now: 1}
	var evicted []Eviction
	c := mustNew(t, testConfig(func(cfg *Config) {
		cfg.Clock = clk.Now
		cfg.OnEvict = func(ev Eviction) { evicted = append(evicted, ev) }
	}))
	for i := 0; i < 10; i++ {
		ttl := time.Duration(0)
		if i%2 == 0 {
			ttl = time.Second
		}
		if err := c.Set(0, fmt.Sprintf("k%d", i), []byte("v"), ttl); err != nil {
			t.Fatal(err)
		}
	}
	clk.Advance(2 * time.Second)
	if removed := c.Sweep(); removed != 5 {
		t.Fatalf("Sweep removed %d, want 5", removed)
	}
	if c.Len() != 5 {
		t.Fatalf("Len = %d after sweep, want 5", c.Len())
	}
	if len(evicted) != 5 {
		t.Fatalf("%d sweep callbacks, want 5", len(evicted))
	}
	for _, ev := range evicted {
		if ev.Reason != ReasonExpired {
			t.Fatalf("sweep callback reason = %v", ev.Reason)
		}
	}
	if again := c.Sweep(); again != 0 {
		t.Fatalf("second Sweep removed %d, want 0", again)
	}
	if err := c.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBackgroundSweeper(t *testing.T) {
	c := mustNew(t, testConfig(func(cfg *Config) {
		cfg.SweepInterval = time.Millisecond
	}))
	if err := c.Set(0, "k", []byte("v"), time.Millisecond); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for c.Len() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("sweeper never removed the expired entry")
		}
		time.Sleep(time.Millisecond)
	}
	c.Close()
	c.Close() // idempotent
}

func TestQuotaEvictionOnSet(t *testing.T) {
	// One shard so LRU order is global per tenant.
	c := mustNew(t, testConfig(func(cfg *Config) {
		cfg.Shards = 1
		cfg.CapacityBytes = 2048
		cfg.Tenants = []TenantConfig{{Name: "only"}}
	}))
	val := make([]byte, 100) // ~165 bytes per entry with overhead
	quota := c.TenantQuota(0)
	var n int
	for n = 0; n < 32; n++ {
		if err := c.Set(0, fmt.Sprintf("k%d", n), val, 0); err != nil {
			t.Fatal(err)
		}
	}
	if used := c.TenantUsage(0); used > quota {
		t.Fatalf("usage %d over quota %d", used, quota)
	}
	st := c.Stats()[0]
	if st.CapacityEvictions == 0 {
		t.Fatal("no capacity evictions despite overflow")
	}
	// The most recent keys survive.
	if _, ok := c.Get(0, fmt.Sprintf("k%d", n-1)); !ok {
		t.Fatal("most recent key evicted")
	}
	if _, ok := c.Get(0, "k0"); ok {
		t.Fatal("oldest key survived quota pressure")
	}
	if err := c.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSetRejectsOversizedEntry(t *testing.T) {
	c := mustNew(t, testConfig(func(cfg *Config) {
		cfg.Shards = 1
		cfg.CapacityBytes = 4096
		cfg.Tenants = []TenantConfig{{Name: "only"}}
	}))
	if err := c.Set(0, "huge", make([]byte, 1<<20), 0); err != ErrTooLarge {
		t.Fatalf("Set oversized = %v, want ErrTooLarge", err)
	}
	if c.Len() != 0 {
		t.Fatal("oversized entry admitted")
	}
}

func TestRejectedSetDoesNotFeedUMON(t *testing.T) {
	c := mustNew(t, testConfig(func(cfg *Config) {
		cfg.SampleRate = 1
		cfg.Shards = 1
		cfg.CapacityBytes = 4096
		cfg.Tenants = []TenantConfig{{Name: "only"}}
	}))
	if err := c.Set(0, "huge", make([]byte, 1<<20), 0); err != ErrTooLarge {
		t.Fatalf("Set oversized = %v, want ErrTooLarge", err)
	}
	if got := c.Feed(0).Presented(); got != 0 {
		t.Fatalf("rejected Set fed the UMON %d accesses", got)
	}
	if err := c.Set(0, "ok", []byte("v"), 0); err != nil {
		t.Fatal(err)
	}
	if got := c.Feed(0).Presented(); got != 1 {
		t.Fatalf("admitted Set fed %d accesses, want 1", got)
	}
}

func TestEvictionCallbackLRUOrder(t *testing.T) {
	var order []string
	c := mustNew(t, testConfig(func(cfg *Config) {
		cfg.Shards = 1
		cfg.CapacityBytes = 1 << 20
		cfg.Tenants = []TenantConfig{{Name: "only"}}
		cfg.OnEvict = func(ev Eviction) {
			if ev.Reason == ReasonCapacity {
				order = append(order, ev.Key)
			}
		}
	}))
	val := make([]byte, 64)
	for _, k := range []string{"a", "b", "c", "d"} {
		if err := c.Set(0, k, val, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Touch order now oldest-first: a, b, c, d. Touch a and b so c becomes LRU.
	c.Get(0, "a")
	c.Get(0, "b")
	// Shrink the quota so exactly two entries must go: LRU order is c, then d.
	if err := c.SetQuotas([]int64{2 * EntrySize("a", val)}); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "c" || order[1] != "d" {
		t.Fatalf("capacity evictions in order %v, want [c d]", order)
	}
	if err := c.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestHashCollisionDisplaces pins the one rule the hash-keyed slot index
// adds: two keys of one tenant shard whose 64-bit hashes collide cannot both
// be cached. The later Set displaces the earlier entry as a capacity
// eviction, and the displaced key then misses and cannot be deleted.
func TestHashCollisionDisplaces(t *testing.T) {
	var evicted []Eviction
	c := mustNew(t, testConfig(func(cfg *Config) {
		cfg.OnEvict = func(ev Eviction) { evicted = append(evicted, ev) }
	}))
	const h = 0x5eed
	first, second := []byte("1"), []byte("22")
	if err := c.set(0, h, "first", first, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.set(0, h, "second", second, 0); err != nil {
		t.Fatal(err)
	}
	if len(evicted) != 1 || evicted[0].Key != "first" || evicted[0].Reason != ReasonCapacity ||
		evicted[0].Size != EntrySize("first", first) || string(evicted[0].Value) != "1" {
		t.Fatalf("evictions %+v, want only %q displaced for capacity", evicted, "first")
	}
	if st := c.Stats()[0]; st.CapacityEvictions != 1 || st.Keys != 1 || st.BytesUsed != EntrySize("second", second) {
		t.Fatalf("stats after the displacement: %+v", st)
	}
	if _, ok := c.get(0, h, "first"); ok {
		t.Fatal("Get served the displaced key")
	}
	if c.del(0, h, "first") {
		t.Fatal("Delete of the displaced key reported it present")
	}
	if v, ok := c.get(0, h, "second"); !ok || string(v) != "22" {
		t.Fatalf("resident entry after Delete of the displaced key: %q, %v", v, ok)
	}
	if err := c.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSetQuotasValidation(t *testing.T) {
	c := mustNew(t, testConfig(nil))
	if err := c.SetQuotas([]int64{1}); err == nil {
		t.Fatal("accepted wrong quota count")
	}
	if err := c.SetQuotas([]int64{-1, 0}); err == nil {
		t.Fatal("accepted negative quota")
	}
	if err := c.SetQuotas([]int64{1 << 20, 1}); err == nil {
		t.Fatal("accepted quotas above capacity")
	}
}

func TestStatsCounters(t *testing.T) {
	c := mustNew(t, testConfig(nil))
	c.Set(0, "a", []byte("1"), 0)
	c.Set(0, "a", []byte("2"), 0)
	c.Set(1, "b", []byte("3"), 0)
	c.Get(0, "a")
	c.Get(0, "missing")
	c.Delete(1, "b")
	st := c.Stats()
	if st[0].Sets != 2 || st[0].Hits != 1 || st[0].Misses != 1 {
		t.Fatalf("tenant 0 stats: %+v", st[0])
	}
	if st[1].Sets != 1 || st[1].Deletes != 1 || st[1].Keys != 0 {
		t.Fatalf("tenant 1 stats: %+v", st[1])
	}
	if st[0].Keys != 1 || st[0].BytesUsed != EntrySize("a", []byte("2")) {
		t.Fatalf("tenant 0 usage: %+v", st[0])
	}
	if got := st[0].HitRatio(); got != 0.5 {
		t.Fatalf("HitRatio = %v, want 0.5", got)
	}
	var sum int64
	for _, s := range st {
		sum += s.QuotaBytes
	}
	if sum > c.cfg.CapacityBytes {
		t.Fatalf("quotas sum to %d > capacity", sum)
	}
}

func TestSamplingFeedsUMON(t *testing.T) {
	c := mustNew(t, testConfig(func(cfg *Config) {
		cfg.SampleRate = 1
	}))
	for i := 0; i < 100; i++ {
		c.Set(0, fmt.Sprintf("k%d", i%10), []byte("v"), 0)
		c.Get(0, fmt.Sprintf("k%d", i%10))
	}
	feed := c.Feed(0)
	if feed == nil {
		t.Fatal("no feed despite SampleRate 1")
	}
	if got := feed.Presented(); got != 200 {
		t.Fatalf("feed presented %d accesses, want 200", got)
	}
	if c.Feed(1).Presented() != 0 {
		t.Fatal("idle tenant's feed saw accesses")
	}
	curve := feed.MissCurve(monitor.SampledSnapshot{})
	if curve.Accesses != 200 {
		t.Fatalf("curve accesses = %v, want 200", curve.Accesses)
	}
}

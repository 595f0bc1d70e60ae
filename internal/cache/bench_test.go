package cache

import "testing"

// accessPattern pre-generates a mixed-partition address trace (a counter fed
// through the package's splitmix64) so the timed loop measures only the
// cache.
func accessPattern(n int, span uint64, parts int) ([]uint64, []PartitionID) {
	addrs := make([]uint64, n)
	pids := make([]PartitionID, n)
	for i := range addrs {
		addrs[i] = splitmix64(uint64(i)) % span
		pids[i] = PartitionID(i % parts)
	}
	return addrs, pids
}

func benchAccess(b *testing.B, c Cache) {
	b.Helper()
	for p := 0; p < c.NumPartitions(); p++ {
		c.SetPartitionTarget(PartitionID(p), c.NumLines()/uint64(c.NumPartitions()))
	}
	addrs, pids := accessPattern(1<<14, 20000, c.NumPartitions())
	mask := len(addrs) - 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(addrs[i&mask], pids[i&mask], uint64(i))
	}
}

// BenchmarkZCacheVantage measures the paper-default Z4/52 Vantage access path,
// the inner loop of every simulation. It must report 0 allocs/op.
func BenchmarkZCacheVantage(b *testing.B) {
	c, err := NewZCache(6144, 4, 52, ModeVantage, 6)
	if err != nil {
		b.Fatal(err)
	}
	benchAccess(b, c)
}

// BenchmarkZCacheLRU measures the unpartitioned zcache walk.
func BenchmarkZCacheLRU(b *testing.B) {
	c, err := NewZCache(6144, 4, 52, ModeLRU, 6)
	if err != nil {
		b.Fatal(err)
	}
	benchAccess(b, c)
}

// BenchmarkSetAssocWayPartition measures the way-partitioned set-associative
// access path. It must report 0 allocs/op.
func BenchmarkSetAssocWayPartition(b *testing.B) {
	c, err := NewSetAssoc(6144, 16, ModeWayPartition, 6)
	if err != nil {
		b.Fatal(err)
	}
	benchAccess(b, c)
}

// BenchmarkSetAssocVantage measures Vantage on a set-associative array
// (Figure 13's SA configurations).
func BenchmarkSetAssocVantage(b *testing.B) {
	c, err := NewSetAssoc(6144, 16, ModeVantage, 6)
	if err != nil {
		b.Fatal(err)
	}
	benchAccess(b, c)
}

// BenchmarkSetAssocLRU measures the unpartitioned LRU array used by isolation
// baselines.
func BenchmarkSetAssocLRU(b *testing.B) {
	c, err := NewSetAssoc(6144, 16, ModeLRU, 1)
	if err != nil {
		b.Fatal(err)
	}
	benchAccess(b, c)
}

// newBenchHierarchy builds the default Table 2 private levels in front of the
// paper-default Z4/52 Vantage LLC.
func newBenchHierarchy(f func(error)) *Hierarchy {
	llc, err := NewZCache(6144, 4, 52, ModeVantage, 6)
	if err != nil {
		f(err)
	}
	h, err := NewHierarchy(DefaultHierarchy(), llc)
	if err != nil {
		f(err)
	}
	return h
}

// BenchmarkHierarchyAccess measures the full private-L1/L2-then-LLC walk on
// the default hierarchy, the inner loop of every hierarchical simulation. It
// must report 0 allocs/op.
func BenchmarkHierarchyAccess(b *testing.B) {
	h := newBenchHierarchy(func(err error) { b.Fatal(err) })
	addrs, pids := accessPattern(1<<14, 20000, 6)
	mask := len(addrs) - 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(addrs[i&mask], pids[i&mask], uint64(i))
	}
}

// BenchmarkHierarchyAccessHot measures the same walk on a working set that
// fits the private levels: mostly L1 misses that hit L2. It is the filters'
// best case, not the simulator's common one (BenchmarkAccessPrivateMiss).
func BenchmarkHierarchyAccessHot(b *testing.B) {
	h := newBenchHierarchy(func(err error) { b.Fatal(err) })
	addrs, pids := accessPattern(1<<14, 64, 6)
	mask := len(addrs) - 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(addrs[i&mask], pids[i&mask], uint64(i))
	}
}

// BenchmarkAccessPrivateMiss measures the private L1/L2 filter alone on the
// traffic it sees in a simulated mix: a uniform stream over 1280 lines
// against the default 16 + 128 private lines, so about 90% of accesses miss
// both levels and go on to the LLC (llc_frac reports the share), which the
// benchmark leaves out. It must report 0 allocs/op.
func BenchmarkAccessPrivateMiss(b *testing.B) {
	h := newBenchHierarchy(func(err error) { b.Fatal(err) })
	addrs, _ := accessPattern(1<<14, 1280, 1)
	mask := len(addrs) - 1
	reached := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, served := h.AccessPrivate(addrs[i&mask]); !served {
			reached++
		}
	}
	b.ReportMetric(float64(reached)/float64(b.N), "llc_frac")
}

// TestHierarchyAccessDoesNotAllocate extends the allocation guarantee to the
// hierarchy walk: private-level probes, fills, inclusive back-invalidation
// and the LLC fall-through must all be allocation-free in steady state.
func TestHierarchyAccessDoesNotAllocate(t *testing.T) {
	llc, err := NewZCache(2048, 4, 52, ModeVantage, 6)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultHierarchy()
	cfg.L2.Inclusive = true
	h, err := NewHierarchy(cfg, llc)
	if err != nil {
		t.Fatal(err)
	}
	addrs, pids := accessPattern(4096, 10000, 6)
	for p := 0; p < 6; p++ {
		llc.SetPartitionTarget(PartitionID(p), llc.NumLines()/6)
	}
	for i, a := range addrs {
		h.Access(a, pids[i], uint64(i))
	}
	i := 0
	allocs := testing.AllocsPerRun(2000, func() {
		h.Access(addrs[i&4095], pids[i&4095], uint64(i))
		i++
	})
	if allocs != 0 {
		t.Errorf("hierarchy Access allocates %.1f times per op, want 0", allocs)
	}
}

// TestAccessDoesNotAllocate locks in the hot-path guarantee the benchmarks
// report: steady-state Access never allocates, for any array kind or mode.
func TestAccessDoesNotAllocate(t *testing.T) {
	caches := map[string]Cache{}
	if c, err := NewZCache(2048, 4, 52, ModeVantage, 6); err == nil {
		caches["zcache-vantage"] = c
	} else {
		t.Fatal(err)
	}
	if c, err := NewSetAssoc(2048, 16, ModeWayPartition, 6); err == nil {
		caches["setassoc-waypart"] = c
	} else {
		t.Fatal(err)
	}
	if c, err := NewSetAssoc(2048, 16, ModeVantage, 6); err == nil {
		caches["setassoc-vantage"] = c
	} else {
		t.Fatal(err)
	}
	for name, c := range caches {
		addrs, pids := accessPattern(4096, 10000, c.NumPartitions())
		for p := 0; p < c.NumPartitions(); p++ {
			c.SetPartitionTarget(PartitionID(p), c.NumLines()/uint64(c.NumPartitions()))
		}
		// Warm up so the steady state (full cache, eviction on every miss) is
		// what is measured.
		for i, a := range addrs {
			c.Access(a, pids[i], uint64(i))
		}
		i := 0
		allocs := testing.AllocsPerRun(2000, func() {
			c.Access(addrs[i&4095], pids[i&4095], uint64(i))
			i++
		})
		if allocs != 0 {
			t.Errorf("%s: Access allocates %.1f times per op, want 0", name, allocs)
		}
	}
}

package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSetAssocConstruction(t *testing.T) {
	cases := []struct {
		lines uint64
		ways  int
		parts int
		ok    bool
	}{
		{1024, 16, 4, true},
		{1024, 64, 4, true},
		{0, 16, 4, false},
		{1000, 16, 4, false}, // 1000 not a multiple of 16 ways
		{1024, 0, 4, false},  // no ways
		{1024, 16, 0, false}, // no partitions
		{1024, 4, 6, false},  // way-partition with more partitions than ways is checked below
	}
	for _, c := range cases[:6] {
		_, err := NewSetAssoc(c.lines, c.ways, ModeLRU, c.parts)
		if (err == nil) != c.ok {
			t.Errorf("NewSetAssoc(%d,%d,parts=%d): err=%v, want ok=%v", c.lines, c.ways, c.parts, err, c.ok)
		}
	}
	if _, err := NewSetAssoc(1024, 4, ModeWayPartition, 6); err == nil {
		t.Errorf("way-partitioning with more partitions than ways should fail")
	}
}

func TestZCacheConstruction(t *testing.T) {
	if _, err := NewZCache(1024, 4, 52, ModeVantage, 6); err != nil {
		t.Errorf("valid zcache config rejected: %v", err)
	}
	if _, err := NewZCache(1024, 4, 2, ModeVantage, 6); err == nil {
		t.Errorf("candidates < ways should fail")
	}
	if _, err := NewZCache(1001, 4, 52, ModeVantage, 6); err == nil {
		t.Errorf("line count that is not a multiple of ways should fail")
	}
	if _, err := NewZCache(1024, 4, 52, ModeWayPartition, 6); err == nil {
		t.Errorf("way-partitioned zcache should fail")
	}
	if _, err := NewZCache(1024, 0, 52, ModeVantage, 6); err == nil {
		t.Errorf("zero ways should fail")
	}
	if _, err := NewZCache(1024, 4, 52, ModeVantage, 0); err == nil {
		t.Errorf("zero partitions should fail")
	}
}

func TestConfigFactory(t *testing.T) {
	cfgs := []ArrayConfig{
		{Kind: ArraySetAssoc, Lines: 1024, Ways: 16, Mode: ModeLRU, Partitions: 1},
		{Kind: ArraySetAssoc, Lines: 1024, Ways: 16, Mode: ModeWayPartition, Partitions: 6},
		{Kind: ArraySetAssoc, Lines: 1024, Ways: 64, Mode: ModeVantage, Partitions: 6},
		DefaultZ452(2048, 6),
	}
	for _, cfg := range cfgs {
		c, err := New(cfg)
		if err != nil {
			t.Fatalf("New(%v): %v", cfg, err)
		}
		if c.NumLines() != cfg.Lines {
			t.Errorf("%v: NumLines=%d want %d", cfg, c.NumLines(), cfg.Lines)
		}
		if c.NumPartitions() != cfg.Partitions {
			t.Errorf("%v: NumPartitions=%d want %d", cfg, c.NumPartitions(), cfg.Partitions)
		}
		if cfg.String() == "" {
			t.Errorf("config string empty")
		}
	}
	bad := []ArrayConfig{
		{Kind: ArraySetAssoc, Lines: 0, Ways: 16, Partitions: 1},
		{Kind: ArrayZCache, Lines: 1024, Ways: 4, Candidates: 1, Partitions: 1},
		{Kind: ArrayKind(99), Lines: 1024, Ways: 4, Candidates: 8, Partitions: 1},
	}
	for _, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("New(%v) should fail", cfg)
		}
	}
	if ArrayZCache.String() != "ZCache" || ArraySetAssoc.String() != "SetAssoc" {
		t.Errorf("ArrayKind strings wrong")
	}
	if ModeLRU.String() != "LRU" || ModeVantage.String() != "Vantage" || ModeWayPartition.String() != "WayPartition" {
		t.Errorf("ReplacementMode strings wrong")
	}
}

// caches under test for the shared behavioural tests.
func testCaches(t *testing.T, lines uint64, parts int) map[string]Cache {
	t.Helper()
	sa, err := NewSetAssoc(lines, 16, ModeLRU, parts)
	if err != nil {
		t.Fatal(err)
	}
	sav, err := NewSetAssoc(lines, 16, ModeVantage, parts)
	if err != nil {
		t.Fatal(err)
	}
	zc, err := NewZCache(lines, 4, 52, ModeVantage, parts)
	if err != nil {
		t.Fatal(err)
	}
	zl, err := NewZCache(lines, 4, 16, ModeLRU, parts)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Cache{"SA16-LRU": sa, "SA16-Vantage": sav, "Z4/52-Vantage": zc, "Z4/16-LRU": zl}
}

func TestBasicHitMiss(t *testing.T) {
	for name, c := range testCaches(t, 1024, 2) {
		r := c.Access(42, 0, 7)
		if r.Hit {
			t.Errorf("%s: first access should miss", name)
		}
		r = c.Access(42, 0, 9)
		if !r.Hit {
			t.Errorf("%s: second access should hit", name)
		}
		if r.PrevMeta != 7 {
			t.Errorf("%s: PrevMeta=%d want 7", name, r.PrevMeta)
		}
		r = c.Access(42, 0, 11)
		if !r.Hit || r.PrevMeta != 9 {
			t.Errorf("%s: meta should track most recent access", name)
		}
		st := c.Stats()
		if st.Accesses != 3 || st.Hits != 2 || st.Misses != 1 {
			t.Errorf("%s: stats wrong: %+v", name, st)
		}
		ps := c.PartitionStats(0)
		if ps.Accesses != 3 || ps.Hits != 2 || ps.Misses != 1 {
			t.Errorf("%s: partition stats wrong: %+v", name, ps)
		}
		c.ResetStats()
		if c.Stats().Accesses != 0 {
			t.Errorf("%s: ResetStats did not clear", name)
		}
		if c.PartitionSize(0) != 1 {
			t.Errorf("%s: partition size should be 1 after reset (occupancy preserved)", name)
		}
	}
}

func TestWorkingSetFitsNoEvictions(t *testing.T) {
	// A working set smaller than the cache should settle to ~100% hits.
	for name, c := range testCaches(t, 4096, 1) {
		ws := uint64(1000)
		for pass := 0; pass < 3; pass++ {
			for a := uint64(0); a < ws; a++ {
				c.Access(a, 0, 0)
			}
		}
		c.ResetStats()
		for a := uint64(0); a < ws; a++ {
			if !c.Access(a, 0, 0).Hit {
				// A handful of conflict misses are tolerable on SA arrays, but
				// they should be very rare with 4x headroom.
			}
		}
		st := c.Stats()
		if st.HitRate() < 0.97 {
			t.Errorf("%s: fitting working set hit rate %.3f, want >= 0.97", name, st.HitRate())
		}
	}
}

func TestCapacityMissesWhenOverflowing(t *testing.T) {
	// A cyclic working set much larger than the cache should mostly miss.
	for name, c := range testCaches(t, 1024, 1) {
		for pass := 0; pass < 3; pass++ {
			for a := uint64(0); a < 8192; a++ {
				c.Access(a, 0, 0)
			}
		}
		st := c.Stats()
		if st.HitRate() > 0.5 {
			t.Errorf("%s: overflowing working set hit rate %.3f, want < 0.5", name, st.HitRate())
		}
	}
}

func TestOccupancyNeverExceedsCapacity(t *testing.T) {
	for name, c := range testCaches(t, 1024, 3) {
		r := rand.New(rand.NewSource(3))
		for i := 0; i < 20000; i++ {
			c.Access(uint64(r.Intn(5000)), PartitionID(r.Intn(3)), 0)
		}
		var total uint64
		for p := 0; p < 3; p++ {
			total += c.PartitionSize(PartitionID(p))
		}
		if total > c.NumLines() {
			t.Errorf("%s: total occupancy %d exceeds capacity %d", name, total, c.NumLines())
		}
		if total < c.NumLines()*9/10 {
			t.Errorf("%s: cache should be nearly full after many accesses, occupancy=%d", name, total)
		}
	}
}

func TestVantageRespectsTargetsZCache(t *testing.T) {
	c, err := NewZCache(2048, 4, 52, ModeVantage, 2)
	if err != nil {
		t.Fatal(err)
	}
	c.SetPartitionTarget(0, 1536)
	c.SetPartitionTarget(1, 512)
	if c.PartitionTarget(0) != 1536 || c.PartitionTarget(1) != 512 {
		t.Fatalf("targets not stored")
	}
	r := rand.New(rand.NewSource(4))
	// Both partitions stream heavily; occupancy should converge near targets.
	for i := 0; i < 300000; i++ {
		c.Access(uint64(1_000_000+r.Intn(100000)), 0, 0)
		c.Access(uint64(9_000_000+r.Intn(100000)), 1, 0)
	}
	s0, s1 := c.PartitionSize(0), c.PartitionSize(1)
	if s0 < 1400 || s0 > 1700 {
		t.Errorf("partition 0 occupancy %d far from target 1536", s0)
	}
	if s1 < 400 || s1 > 650 {
		t.Errorf("partition 1 occupancy %d far from target 512", s1)
	}
	// Forced evictions should be very rare on a 52-candidate zcache.
	st := c.Stats()
	if frac := float64(st.ForcedEvictions) / float64(st.Evictions+1); frac > 0.01 {
		t.Errorf("forced eviction fraction %.4f too high for Z4/52", frac)
	}
}

func TestVantageGrowingPartitionNotEvicted(t *testing.T) {
	// The property Ubik relies on: while a partition is below its target, its
	// lines are essentially never victimised, so it grows by one line per miss.
	c, err := NewZCache(2048, 4, 52, ModeVantage, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Fill the cache with partition 1's data first.
	r := rand.New(rand.NewSource(5))
	c.SetPartitionTarget(0, 0)
	c.SetPartitionTarget(1, 2048)
	for i := 0; i < 100000; i++ {
		c.Access(uint64(5_000_000+r.Intn(4000)), 1, 0)
	}
	// Now grow partition 0 to 1024 lines while partition 1 is downsized.
	c.SetPartitionTarget(0, 1024)
	c.SetPartitionTarget(1, 1024)
	evictionsFromP0 := uint64(0)
	missesP0 := uint64(0)
	prevSize := c.PartitionSize(0)
	for i := 0; i < 900; i++ {
		res := c.Access(uint64(100_000+i), 0, 0) // all misses: new addresses
		if !res.Hit {
			missesP0++
		}
		if res.Evicted && res.EvictedPartition == 0 {
			evictionsFromP0++
		}
	}
	grown := c.PartitionSize(0) - prevSize
	if evictionsFromP0 > missesP0/100 {
		t.Errorf("growing partition lost %d lines over %d misses; Vantage should protect it", evictionsFromP0, missesP0)
	}
	if grown < missesP0*95/100 {
		t.Errorf("growing partition should gain ~1 line per miss: grew %d over %d misses", grown, missesP0)
	}
}

func TestWayPartitioningRestrictsOccupancy(t *testing.T) {
	c, err := NewSetAssoc(2048, 16, ModeWayPartition, 2)
	if err != nil {
		t.Fatal(err)
	}
	// 12 ways to partition 0, 4 ways to partition 1.
	c.SetPartitionTarget(0, 1536)
	c.SetPartitionTarget(1, 512)
	r := rand.New(rand.NewSource(6))
	for i := 0; i < 200000; i++ {
		c.Access(uint64(1_000_000+r.Intn(100000)), 0, 0)
		c.Access(uint64(9_000_000+r.Intn(100000)), 1, 0)
	}
	s0, s1 := c.PartitionSize(0), c.PartitionSize(1)
	if s0 < 1300 || s0 > 1600 {
		t.Errorf("partition 0 occupancy %d far from 1536", s0)
	}
	if s1 < 400 || s1 > 600 {
		t.Errorf("partition 1 occupancy %d far from 512", s1)
	}
}

func TestWayPartitioningLazyReassignment(t *testing.T) {
	// When ways are reassigned the previous owner's lines stay until evicted:
	// the new owner's occupancy grows only as it misses (slow transients).
	c, err := NewSetAssoc(2048, 16, ModeWayPartition, 2)
	if err != nil {
		t.Fatal(err)
	}
	c.SetPartitionTarget(0, 2048)
	c.SetPartitionTarget(1, 0)
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 100000; i++ {
		c.Access(uint64(1_000_000+r.Intn(3000)), 0, 0)
	}
	occBefore := c.PartitionSize(0)
	// Give half the cache to partition 1; partition 0's lines must not vanish
	// instantly.
	c.SetPartitionTarget(0, 1024)
	c.SetPartitionTarget(1, 1024)
	if c.PartitionSize(0) != occBefore {
		t.Errorf("repartitioning alone should not move lines")
	}
	// As partition 1 misses, it reclaims its ways gradually.
	for i := 0; i < 2000; i++ {
		c.Access(uint64(9_000_000+i), 1, 0)
	}
	if c.PartitionSize(1) == 0 {
		t.Errorf("partition 1 should have claimed some lines")
	}
	if c.PartitionSize(0) >= occBefore {
		t.Errorf("partition 0 should have lost some lines to reclamation")
	}
}

func TestSetAssocLRUEviction(t *testing.T) {
	// With a single set (ways == lines per set), LRU order is exact.
	c, err := NewSetAssoc(4, 4, ModeLRU, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Addresses all map to the same (only) set... there is only one set when
	// lines/ways == 1.
	for a := uint64(0); a < 4; a++ {
		c.Access(a, 0, 0)
	}
	c.Access(0, 0, 0) // touch 0 so 1 is now LRU
	c.Access(100, 0, 0)
	if !c.Contains(0) {
		t.Errorf("recently used line 0 should survive")
	}
	if c.Contains(1) {
		t.Errorf("LRU line 1 should have been evicted")
	}
}

func TestZCacheRelocationPreservesLines(t *testing.T) {
	// After many accesses with relocations, every cached address must still be
	// findable through its own hash positions (the relocation chain must only
	// move lines into their own alternative slots).
	c, err := NewZCache(512, 4, 52, ModeLRU, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(8))
	inserted := make([]uint64, 0, 2000)
	for i := 0; i < 2000; i++ {
		a := uint64(r.Intn(100000))
		c.Access(a, 0, 0)
		inserted = append(inserted, a)
	}
	// Count how many of the most recent insertions are present; they must be
	// found via Contains (which only checks hash positions), proving that
	// relocation never stranded a line in a foreign slot. Also sanity check
	// that the cache is full.
	var size uint64
	for p := 0; p < c.NumPartitions(); p++ {
		size += c.PartitionSize(PartitionID(p))
	}
	if size != c.NumLines() {
		t.Errorf("zcache should be full: %d/%d", size, c.NumLines())
	}
	recent := inserted[len(inserted)-64:]
	found := 0
	for _, a := range recent {
		if c.Contains(a) {
			found++
		}
	}
	if found < 32 {
		t.Errorf("too few recent lines findable (%d/64); relocation may be corrupting placement", found)
	}
}

func TestInvalidPartitionHandling(t *testing.T) {
	c, _ := NewZCache(512, 4, 16, ModeVantage, 2)
	// Accesses with out-of-range partitions fall back to partition 0.
	c.Access(1, PartitionID(-1), 0)
	c.Access(2, PartitionID(99), 0)
	if c.PartitionSize(0) != 2 {
		t.Errorf("out-of-range partition accesses should land in partition 0")
	}
	if c.PartitionSize(PartitionID(99)) != 0 {
		t.Errorf("invalid partition size should be 0")
	}
	if c.PartitionTarget(PartitionID(99)) != 0 {
		t.Errorf("invalid partition target should be 0")
	}
	c.SetPartitionTarget(PartitionID(99), 100) // must not panic
	st := c.PartitionStats(PartitionID(99))
	if st.Accesses != 0 {
		t.Errorf("invalid partition stats should be empty")
	}
	sa, _ := NewSetAssoc(512, 4, ModeLRU, 2)
	sa.Access(1, PartitionID(-5), 0)
	if sa.PartitionSize(0) != 1 {
		t.Errorf("set-assoc out-of-range partition should land in partition 0")
	}
	sa.SetPartitionTarget(PartitionID(50), 10)
	if sa.PartitionTarget(PartitionID(50)) != 0 {
		t.Errorf("set-assoc invalid target should stay 0")
	}
}

func TestStatsHitRateAndMissRate(t *testing.T) {
	var s Stats
	if s.HitRate() != 0 {
		t.Errorf("empty stats hit rate should be 0")
	}
	s = Stats{Accesses: 10, Hits: 7}
	if s.HitRate() != 0.7 {
		t.Errorf("hit rate wrong")
	}
	var ps PartitionStats
	if ps.MissRate() != 0 {
		t.Errorf("empty partition miss rate should be 0")
	}
	ps = PartitionStats{Accesses: 10, Misses: 4}
	if ps.MissRate() != 0.4 {
		t.Errorf("miss rate wrong")
	}
}

func TestPropertyOccupancyConservation(t *testing.T) {
	// Property: for any access sequence, sum of partition sizes equals the
	// number of distinct resident lines and never exceeds capacity.
	f := func(seed int64, ops uint16) bool {
		c, err := NewZCache(256, 4, 16, ModeVantage, 3)
		if err != nil {
			return false
		}
		c.SetPartitionTarget(0, 100)
		c.SetPartitionTarget(1, 100)
		c.SetPartitionTarget(2, 56)
		r := rand.New(rand.NewSource(seed))
		n := int(ops)%4000 + 100
		for i := 0; i < n; i++ {
			c.Access(uint64(r.Intn(2000)), PartitionID(r.Intn(3)), 0)
		}
		var total uint64
		for p := 0; p < 3; p++ {
			total += c.PartitionSize(PartitionID(p))
		}
		return total <= c.NumLines()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPropertyHitAfterInsert(t *testing.T) {
	// Property: an address accessed twice in a row always hits the second time
	// (no replacement can evict the just-inserted line in any mode).
	f := func(seed int64, addrRaw uint32, mode uint8) bool {
		m := []ReplacementMode{ModeLRU, ModeVantage}[int(mode)%2]
		c, err := NewZCache(256, 4, 16, m, 2)
		if err != nil {
			return false
		}
		c.SetPartitionTarget(0, 128)
		c.SetPartitionTarget(1, 128)
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < 500; i++ {
			c.Access(uint64(r.Intn(5000)), PartitionID(r.Intn(2)), 0)
		}
		addr := uint64(addrRaw)
		c.Access(addr, 0, 0)
		return c.Access(addr, 0, 0).Hit
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestZCacheMoreCandidatesFewerForcedEvictions(t *testing.T) {
	// Design-choice check backing Figure 13: a larger replacement walk makes
	// Vantage's guarantees stronger (fewer forced evictions).
	run := func(candidates int) float64 {
		c, _ := NewZCache(1024, 4, candidates, ModeVantage, 2)
		c.SetPartitionTarget(0, 768)
		c.SetPartitionTarget(1, 256)
		r := rand.New(rand.NewSource(11))
		for i := 0; i < 100000; i++ {
			c.Access(uint64(1_000_000+r.Intn(20000)), 0, 0)
			c.Access(uint64(9_000_000+r.Intn(20000)), 1, 0)
		}
		st := c.Stats()
		return float64(st.ForcedEvictions) / float64(st.Evictions+1)
	}
	few := run(4)
	many := run(52)
	if many > few {
		t.Errorf("52-candidate walk should not have more forced evictions than 4-candidate: %v vs %v", many, few)
	}
}

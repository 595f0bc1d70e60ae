package cache

import (
	"math/rand"
	"testing"
)

func TestLevelConfigValidate(t *testing.T) {
	cases := []struct {
		cfg LevelConfig
		ok  bool
	}{
		{LevelConfig{}, true}, // disabled level is always valid
		{LevelConfig{Lines: 16, Ways: 4}, true},
		{LevelConfig{Lines: 128, Ways: 8, Inclusive: true}, true},
		{LevelConfig{Lines: 16, Ways: 0}, false},
		{LevelConfig{Lines: 10, Ways: 4}, false}, // not a multiple of ways
	}
	for _, c := range cases {
		if err := c.cfg.Validate(); (err == nil) != c.ok {
			t.Errorf("LevelConfig%+v.Validate() = %v, want ok=%v", c.cfg, err, c.ok)
		}
	}
	if (LevelConfig{}).String() != "disabled" {
		t.Errorf("disabled level should stringify as disabled")
	}
	if (LevelConfig{Lines: 16, Ways: 4}).String() == "" {
		t.Errorf("enabled level string empty")
	}
}

func TestHierarchyConfigValidate(t *testing.T) {
	if err := (HierarchyConfig{}).Validate(); err != nil {
		t.Errorf("zero hierarchy should be valid (flat system): %v", err)
	}
	if (HierarchyConfig{}).Enabled() {
		t.Errorf("zero hierarchy should be disabled")
	}
	if err := DefaultHierarchy().Validate(); err != nil {
		t.Errorf("default hierarchy invalid: %v", err)
	}
	if !DefaultHierarchy().Enabled() {
		t.Errorf("default hierarchy should be enabled")
	}
	inverted := HierarchyConfig{
		L1: LevelConfig{Lines: 256, Ways: 4},
		L2: LevelConfig{Lines: 64, Ways: 4},
	}
	if err := inverted.Validate(); err == nil {
		t.Errorf("L2 smaller than L1 should be invalid")
	}
}

func TestPrivateLevelBasics(t *testing.T) {
	l, err := newPrivateLevel(LevelConfig{Lines: 16, Ways: 4})
	if err != nil {
		t.Fatal(err)
	}
	if l.NumLines() != 16 {
		t.Errorf("NumLines = %d, want 16", l.NumLines())
	}
	if hit, _, _ := l.access(hashAddr(42), 42); hit {
		t.Errorf("first access should miss")
	}
	if hit, _, _ := l.access(hashAddr(42), 42); !hit {
		t.Errorf("access after the fill should hit")
	}
	st := l.Stats()
	if st.Accesses != 2 || st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats wrong: %+v", st)
	}
	if st.HitRate() != 0.5 {
		t.Errorf("hit rate = %v, want 0.5", st.HitRate())
	}
	l.Invalidate(42)
	if l.Contains(42) {
		t.Errorf("invalidated line still present")
	}
	l.ResetStats()
	if l.Stats().Accesses != 0 {
		t.Errorf("ResetStats did not clear")
	}
	// Disabled level constructs as nil without error.
	if nl, err := newPrivateLevel(LevelConfig{}); err != nil || nl != nil {
		t.Errorf("disabled level should be (nil, nil), got (%v, %v)", nl, err)
	}
}

func TestPrivateLevelLRUWithinSet(t *testing.T) {
	// One set: 4 lines, 4 ways. Exact LRU order applies.
	l, err := newPrivateLevel(LevelConfig{Lines: 4, Ways: 4})
	if err != nil {
		t.Fatal(err)
	}
	for a := uint64(0); a < 4; a++ {
		l.access(hashAddr(a), a)
	}
	l.access(hashAddr(0), 0) // refresh 0; 1 becomes LRU
	_, evicted, wasValid := l.access(hashAddr(100), 100)
	if !wasValid || evicted != 1 {
		t.Errorf("the fill should have evicted LRU line 1, got (%d, %v)", evicted, wasValid)
	}
	if !l.Contains(0) || l.Contains(1) || !l.Contains(100) {
		t.Errorf("LRU replacement order wrong")
	}
}

func TestPrivateLevelCapacity(t *testing.T) {
	l, err := newPrivateLevel(LevelConfig{Lines: 64, Ways: 4})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		a := uint64(r.Intn(1000))
		l.access(hashAddr(a), a)
	}
	resident := 0
	for a := uint64(0); a < 1000; a++ {
		if l.Contains(a) {
			resident++
		}
	}
	if uint64(resident) > l.NumLines() {
		t.Errorf("%d resident lines exceed capacity %d", resident, l.NumLines())
	}
}

// newTestHierarchy builds an L1+L2 hierarchy over a small LRU set-assoc LLC.
func newTestHierarchy(t *testing.T, inclusive bool) (*Hierarchy, *SetAssoc) {
	t.Helper()
	llc, err := NewSetAssoc(1024, 16, ModeLRU, 1)
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHierarchy(HierarchyConfig{
		L1: LevelConfig{Lines: 16, Ways: 4},
		L2: LevelConfig{Lines: 64, Ways: 8, Inclusive: inclusive},
	}, llc)
	if err != nil {
		t.Fatal(err)
	}
	return h, llc
}

func TestHierarchyAccessLevels(t *testing.T) {
	h, llc := newTestHierarchy(t, false)
	// Cold access: misses everywhere, reaches the LLC, fills every level.
	res := h.Access(7, 0, 1)
	if res.Level != LevelMemory || !res.ReachedLLC || res.LLC.Hit {
		t.Fatalf("cold access should miss to memory: %+v", res)
	}
	if llc.Stats().Accesses != 1 {
		t.Errorf("LLC should have seen the cold access")
	}
	// Second access: L1 hit, filtered before the LLC.
	res = h.Access(7, 0, 2)
	if res.Level != LevelL1 || res.ReachedLLC {
		t.Fatalf("second access should hit L1: %+v", res)
	}
	if llc.Stats().Accesses != 1 {
		t.Errorf("L1 hit must not reach the LLC")
	}
	// Evict 7 from L1 only (fill its set with conflicting lines), keep it in
	// L2: next access should be an L2 hit.
	if !h.L1().Contains(7) {
		t.Fatal("7 should be in L1")
	}
	h.L1().Invalidate(7)
	res = h.Access(7, 0, 3)
	if res.Level != LevelL2 || res.ReachedLLC {
		t.Fatalf("access after L1 invalidation should hit L2: %+v", res)
	}
	if !h.L1().Contains(7) {
		t.Errorf("L2 hit should refill L1")
	}
	// Drop it from both private levels: next access is an LLC hit.
	h.L1().Invalidate(7)
	h.L2().Invalidate(7)
	res = h.Access(7, 0, 4)
	if res.Level != LevelLLC || !res.ReachedLLC || !res.LLC.Hit {
		t.Fatalf("access after private invalidation should hit the LLC: %+v", res)
	}
	if res.LLC.PrevMeta != 1 {
		t.Errorf("LLC line metadata should be from the last LLC-reaching access, got %d", res.LLC.PrevMeta)
	}
}

func TestHierarchyInclusiveBackInvalidation(t *testing.T) {
	h, _ := newTestHierarchy(t, true)
	// Evict a line from the inclusive L2 by filling far past its capacity;
	// every line L2 dropped must also be gone from L1.
	for a := uint64(0); a < 1000; a++ {
		h.Access(a, 0, 0)
	}
	violations := 0
	for a := uint64(0); a < 1000; a++ {
		if h.L1().Contains(a) && !h.L2().Contains(a) {
			violations++
		}
	}
	if violations > 0 {
		t.Errorf("%d lines cached in L1 but not in the inclusive L2", violations)
	}
	if h.L2().Stats().BackInvalidations == 0 {
		t.Errorf("inclusive L2 evictions should have back-invalidated L1")
	}
}

func TestHierarchyNonInclusiveKeepsL1(t *testing.T) {
	h, _ := newTestHierarchy(t, false)
	for a := uint64(0); a < 1000; a++ {
		h.Access(a, 0, 0)
	}
	if h.L2().Stats().BackInvalidations != 0 {
		t.Errorf("non-inclusive L2 must not back-invalidate")
	}
	// With no back-invalidation some L1 residents may have left L2; that is
	// the non-inclusive policy working as intended, so just assert L1 kept
	// its own most recent fills.
	last := uint64(999)
	if !h.L1().Contains(last) {
		t.Errorf("most recent fill should be L1-resident")
	}
}

func TestHierarchyFiltersLLCStream(t *testing.T) {
	h, llc := newTestHierarchy(t, false)
	// A tiny hot working set: after warmup, almost everything is served
	// privately and the LLC sees only the cold misses.
	for pass := 0; pass < 100; pass++ {
		for a := uint64(0); a < 8; a++ {
			h.Access(a, 0, 0)
		}
	}
	if got := llc.Stats().Accesses; got > 16 {
		t.Errorf("hot working set should be filtered by L1: LLC saw %d accesses", got)
	}
	l1 := h.L1().Stats()
	if l1.HitRate() < 0.95 {
		t.Errorf("L1 hit rate %.3f too low for an 8-line working set", l1.HitRate())
	}
}

func TestHierarchyL2OnlyAndPassthrough(t *testing.T) {
	llc, err := NewSetAssoc(1024, 16, ModeLRU, 1)
	if err != nil {
		t.Fatal(err)
	}
	// L2-only hierarchy: the L1 probe is skipped.
	h, err := NewHierarchy(HierarchyConfig{L2: LevelConfig{Lines: 64, Ways: 8}}, llc)
	if err != nil {
		t.Fatal(err)
	}
	if h.L1() != nil {
		t.Fatal("L1 should be disabled")
	}
	h.Access(3, 0, 0)
	if res := h.Access(3, 0, 0); res.Level != LevelL2 {
		t.Errorf("second access should hit the only private level (L2), got %+v", res)
	}
	// Fully disabled hierarchy degenerates to an LLC passthrough.
	flat, err := NewHierarchy(HierarchyConfig{}, llc)
	if err != nil {
		t.Fatal(err)
	}
	res := flat.Access(99, 0, 0)
	if !res.ReachedLLC || res.Level != LevelMemory {
		t.Errorf("flat hierarchy should pass straight to the LLC: %+v", res)
	}
	if res = flat.Access(99, 0, 0); res.Level != LevelLLC {
		t.Errorf("flat hierarchy second access should be an LLC hit: %+v", res)
	}
	if _, err := NewHierarchy(HierarchyConfig{}, nil); err == nil {
		t.Errorf("hierarchy without an LLC should fail")
	}
	bad := HierarchyConfig{L1: LevelConfig{Lines: 10, Ways: 4}}
	if _, err := NewHierarchy(bad, llc); err == nil {
		t.Errorf("invalid level config should fail")
	}
}

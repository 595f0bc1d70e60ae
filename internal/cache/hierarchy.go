package cache

import "fmt"

// This file implements the private (per-core) cache levels the simulated
// system places in front of the shared LLC — the L1/L2 filters of Table 2.
// Each application owns its own PrivateLevel instances, chained by a
// Hierarchy in front of the shared partitioned LLC, so the LLC observes the
// L2-filtered miss stream (which is what UMON curves and Ubik's transient
// analysis assume) instead of the raw access stream.
//
// The levels sit on the simulator's hottest path — most accesses resolve in
// an L1 probe — so they use the same discipline as the LLC models: flat
// structure-of-arrays storage, no allocation after construction, and
// divide-free set indexing (the shared hashAddr mix plus Lemire's
// multiply-shift reduction).

// LevelStats holds cumulative statistics for one private level.
type LevelStats struct {
	Accesses  uint64
	Hits      uint64
	Misses    uint64
	Evictions uint64
	// BackInvalidations counts lines removed from upper levels to preserve
	// inclusion when this level evicted them.
	BackInvalidations uint64
}

// HitRate returns hits/accesses, or 0 when there have been no accesses.
func (s LevelStats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// LevelConfig describes one private cache level. Lines == 0 disables the
// level entirely (accesses pass straight through to the next level), which is
// how the flat pre-hierarchy behaviour is reproduced bit-for-bit.
type LevelConfig struct {
	// Lines is the level's capacity in cache lines (0 = level disabled).
	Lines uint64
	// Ways is the set associativity.
	Ways int
	// Inclusive makes the level enforce inclusion of the levels above it:
	// evicting a line here back-invalidates it upstream. Non-inclusive levels
	// (the default) let upper levels keep lines this level has dropped.
	Inclusive bool
}

// Enabled reports whether the level holds any lines.
func (c LevelConfig) Enabled() bool { return c.Lines > 0 }

// Validate reports configuration problems. A disabled level is always valid.
func (c LevelConfig) Validate() error {
	if !c.Enabled() {
		return nil
	}
	if c.Ways <= 0 {
		return fmt.Errorf("cache: private level needs positive ways, got %d", c.Ways)
	}
	if c.Lines%uint64(c.Ways) != 0 {
		return fmt.Errorf("cache: private level lines %d must be a multiple of ways %d", c.Lines, c.Ways)
	}
	return nil
}

// String returns a compact description such as "16 lines, 4-way".
func (c LevelConfig) String() string {
	if !c.Enabled() {
		return "disabled"
	}
	incl := ""
	if c.Inclusive {
		incl = ", inclusive"
	}
	return fmt.Sprintf("%d lines, %d-way%s", c.Lines, c.Ways, incl)
}

// HierarchyConfig describes the private levels of one core's memory
// hierarchy. The zero value (both levels disabled) models the flat
// pre-hierarchy system where every access goes straight to the LLC.
type HierarchyConfig struct {
	L1 LevelConfig
	L2 LevelConfig
}

// Enabled reports whether any private level is configured.
func (c HierarchyConfig) Enabled() bool { return c.L1.Enabled() || c.L2.Enabled() }

// Validate reports configuration problems.
func (c HierarchyConfig) Validate() error {
	if err := c.L1.Validate(); err != nil {
		return err
	}
	if err := c.L2.Validate(); err != nil {
		return err
	}
	if c.L1.Enabled() && c.L2.Enabled() && c.L2.Lines < c.L1.Lines {
		return fmt.Errorf("cache: L2 (%d lines) must be at least as large as L1 (%d lines)", c.L2.Lines, c.L1.Lines)
	}
	return nil
}

// DefaultHierarchy returns the scaled Table 2 private levels: a "32 KB" L1
// and a "256 KB" L2 in model units (LinesPerMB = 512 model lines per MB, so
// 16 and 128 lines), both non-inclusive, matching the paper's per-core cache
// sizes relative to a 2 MB LLC bank.
func DefaultHierarchy() HierarchyConfig {
	return HierarchyConfig{
		L1: LevelConfig{Lines: 16, Ways: 4},
		L2: LevelConfig{Lines: 128, Ways: 8},
	}
}

// A private-level slot is two interleaved words — the line address and its
// LRU stamp, where stamp 0 means invalid (16 bytes per way, so a 4-way set is
// a single 64-byte hardware cache line and the fused probe+fill scan touches
// exactly one line per L1 access). Slots live in a flat word slice.

// PrivateLevel is one private set-associative filter cache with LRU
// replacement. It stores only tags — private levels filter the stream; the
// simulator's line metadata lives on LLC lines. The access path never
// allocates.
type PrivateLevel struct {
	numSets   uint64
	ways      uint64
	inclusive bool
	words     []uint64 // 2 per slot: addr, use (0 = invalid)
	clock     uint64
	stats     LevelStats
}

// newPrivateLevel builds a private level. It returns nil (a valid "always
// miss" level for the Hierarchy) when the level is disabled.
func newPrivateLevel(cfg LevelConfig) (*PrivateLevel, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !cfg.Enabled() {
		return nil, nil
	}
	return &PrivateLevel{
		numSets:   cfg.Lines / uint64(cfg.Ways),
		ways:      uint64(cfg.Ways),
		inclusive: cfg.Inclusive,
		words:     make([]uint64, 2*cfg.Lines),
	}, nil
}

// NumLines returns the level's capacity in lines.
func (l *PrivateLevel) NumLines() uint64 { return l.numSets * l.ways }

// Inclusive reports whether the level back-invalidates upper levels.
func (l *PrivateLevel) Inclusive() bool { return l.inclusive }

// Stats returns the level's cumulative statistics.
func (l *PrivateLevel) Stats() LevelStats { return l.stats }

// ResetStats clears the statistics (contents are preserved).
func (l *PrivateLevel) ResetStats() { l.stats = LevelStats{} }

// set returns addr's set as its word slice (2 words per way), given the
// already-mixed address hash (one hashAddr serves every level of a hierarchy
// walk).
func (l *PrivateLevel) set(hash uint64) []uint64 {
	base := reduceRange(hash, l.numSets) * l.ways * 2
	return l.words[base : base+l.ways*2]
}

// access is the fused probe+fill: one scan over the set either finds addr
// (hit, LRU stamp refreshed) or selects the LRU victim and inserts addr in
// its place. The returned eviction information lets inclusive levels
// back-invalidate upstream. This is the hierarchy hot path.
func (l *PrivateLevel) access(hash, addr uint64) (hit bool, evicted uint64, evictedValid bool) {
	l.clock++
	l.stats.Accesses++
	set := l.set(hash)
	victim, victimUse := 0, ^uint64(0)
	for i := 0; i < len(set); i += 2 {
		if set[i+1] != 0 && set[i] == addr {
			set[i+1] = l.clock
			l.stats.Hits++
			return true, 0, false
		}
		if set[i+1] < victimUse {
			victim, victimUse = i, set[i+1]
		}
	}
	l.stats.Misses++
	evicted, evictedValid = set[victim], victimUse != 0
	if evictedValid {
		l.stats.Evictions++
	}
	set[victim], set[victim+1] = addr, l.clock
	return false, evicted, evictedValid
}

// Reset returns the level to its freshly constructed state in place.
func (l *PrivateLevel) Reset() {
	if l == nil {
		return
	}
	clear(l.words)
	l.clock = 0
	l.stats = LevelStats{}
}

// Invalidate removes addr from the level if present (back-invalidation from
// an inclusive lower level).
func (l *PrivateLevel) Invalidate(addr uint64) {
	set := l.set(hashAddr(addr))
	for i := 0; i < len(set); i += 2 {
		if set[i+1] != 0 && set[i] == addr {
			set[i+1] = 0
			return
		}
	}
}

// Contains reports whether addr is cached (used by tests; no stat updates).
func (l *PrivateLevel) Contains(addr uint64) bool {
	set := l.set(hashAddr(addr))
	for i := 0; i < len(set); i += 2 {
		if set[i+1] != 0 && set[i] == addr {
			return true
		}
	}
	return false
}

// Hierarchy levels for HierarchyResult.Level.
const (
	// LevelMemory marks an access that missed every cache level.
	LevelMemory = 0
	// LevelL1, LevelL2 and LevelLLC mark the level that served the access.
	LevelL1  = 1
	LevelL2  = 2
	LevelLLC = 3
	// NumLevels sizes per-level lookup tables (memory plus three cache levels).
	NumLevels = 4
)

// HierarchyResult describes where in the hierarchy an access was served.
type HierarchyResult struct {
	// Level is the level that served the access: LevelL1, LevelL2, LevelLLC,
	// or LevelMemory for a full miss.
	Level int
	// ReachedLLC is true when the access missed the private levels and was
	// presented to the shared LLC (the filtered stream monitors observe).
	ReachedLLC bool
	// LLC is the shared cache's result; valid only when ReachedLLC.
	LLC AccessResult
}

// Hierarchy chains one application's private L1/L2 filter levels in front of
// the shared LLC. Each application slot owns its own Hierarchy (private
// levels are per-core hardware); all hierarchies share the one LLC.
type Hierarchy struct {
	l1, l2 *PrivateLevel
	llc    Cache
}

// NewHierarchy builds the private levels for one application in front of the
// shared cache. With both levels disabled the hierarchy degenerates to a
// direct LLC passthrough.
func NewHierarchy(cfg HierarchyConfig, llc Cache) (*Hierarchy, error) {
	if llc == nil {
		return nil, fmt.Errorf("cache: hierarchy needs a shared LLC")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	l1, err := newPrivateLevel(cfg.L1)
	if err != nil {
		return nil, err
	}
	l2, err := newPrivateLevel(cfg.L2)
	if err != nil {
		return nil, err
	}
	return &Hierarchy{l1: l1, l2: l2, llc: llc}, nil
}

// Reset returns both private levels to their freshly constructed state in
// place (the shared LLC is reset separately by its owner).
func (h *Hierarchy) Reset() {
	h.l1.Reset()
	h.l2.Reset()
}

// L1 returns the private L1 level (nil when disabled).
func (h *Hierarchy) L1() *PrivateLevel { return h.l1 }

// L2 returns the private L2 level (nil when disabled).
func (h *Hierarchy) L2() *PrivateLevel { return h.l2 }

// Access walks the hierarchy for one access: L1, then L2, then the shared
// LLC. Each private level uses the fused probe+fill — a miss inserts the line
// in the same set scan that looked it up, which is equivalent to the
// traditional probe-then-fill-on-the-way-back (the line is filled into every
// missed level regardless of where the access is ultimately served) but costs
// one scan instead of two. The address mix is computed once and shared by
// both levels. The walk is allocation-free; in the common case (an L1 hit) it
// is a single one-cache-line scan.
func (h *Hierarchy) Access(addr uint64, part PartitionID, meta uint64) HierarchyResult {
	if level, served := h.AccessPrivate(addr); served {
		return HierarchyResult{Level: level}
	}
	res := h.llc.Access(addr, part, meta)
	level := LevelMemory
	if res.Hit {
		level = LevelLLC
	}
	return HierarchyResult{Level: level, ReachedLLC: true, LLC: res}
}

// AccessPrivate runs exactly the private-level portion of Access — the L1 and
// L2 probes, fills and any inclusive back-invalidation — and reports the
// serving level, or served == false when the access falls through to the
// shared LLC. It touches only per-application state, so the private filter
// can be measured (or driven) without a shared LLC behind it.
func (h *Hierarchy) AccessPrivate(addr uint64) (level int, served bool) {
	if h.l1 != nil || h.l2 != nil {
		hash := hashAddr(addr)
		if h.l1 != nil {
			if hit, _, _ := h.l1.access(hash, addr); hit {
				return LevelL1, true
			}
		}
		if h.l2 != nil {
			hit, evicted, evictedValid := h.l2.access(hash, addr)
			// Inclusive L2: the victim the fill displaced must leave L1 too.
			if evictedValid && h.l2.inclusive && h.l1 != nil {
				h.l1.Invalidate(evicted)
				h.l2.stats.BackInvalidations++
			}
			if hit {
				return LevelL2, true
			}
		}
	}
	return 0, false
}

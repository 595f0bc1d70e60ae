package cache

import (
	"fmt"
	"slices"
)

// This file implements the private (per-core) cache levels the simulated
// system places in front of the shared LLC — the L1/L2 filters of Table 2.
// Each application owns its own PrivateLevel instances, chained by a
// Hierarchy in front of the shared partitioned LLC, so the LLC observes the
// L2-filtered miss stream (which is what UMON curves and Ubik's transient
// analysis assume) instead of the raw access stream.
//
// Every simulated access walks the levels, and in the simulated mixes about
// nine in ten miss both and go on to the LLC, so the miss path is the one
// that matters. The levels use the same discipline as the LLC models: flat
// storage, no allocation after construction, divide-free set indexing (the
// shared hashAddr mix plus Lemire's multiply-shift reduction), and sets kept
// in recency order so that neither a hit nor a miss searches for a victim.

// LevelConfig describes one private cache level. Lines == 0 disables the
// level entirely (accesses pass straight through to the next level); a
// hierarchy with both levels disabled is the flat machine.
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
// hierarchy. The zero value (both levels disabled) models the flat machine,
// where every access goes straight to the LLC.
type HierarchyConfig struct {
	L1 LevelConfig
	L2 LevelConfig
}

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

// PrivateLevel is one private set-associative filter cache with LRU
// replacement. It stores only tags — private levels filter the stream; the
// simulator's line metadata lives on LLC lines. The access path never
// allocates.
//
// Each set keeps its valid lines' addresses in recency order, most recent
// first, as a prefix of the set's ways, and fill[set] counts them. Recency
// order is the LRU state itself, so there are no per-way stamps and no victim
// search: the LRU line is the last valid way. The count, not an invalid-address
// sentinel, marks the prefix's end, because a replayed trace may use every
// 64-bit address.
type PrivateLevel struct {
	numSets   uint64
	ways      int
	inclusive bool
	tags      []uint64 // ways per set, valid lines first, most recent first
	fill      []int    // valid lines per set
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
	numSets := cfg.Lines / uint64(cfg.Ways)
	return &PrivateLevel{
		numSets:   numSets,
		ways:      cfg.Ways,
		inclusive: cfg.Inclusive,
		tags:      make([]uint64, cfg.Lines),
		fill:      make([]int, numSets),
	}, nil
}

// NumLines returns the level's capacity in lines.
func (l *PrivateLevel) NumLines() uint64 { return l.numSets * uint64(l.ways) }

// Inclusive reports whether the level back-invalidates upper levels.
func (l *PrivateLevel) Inclusive() bool { return l.inclusive }

// set returns the index of addr's set and its valid prefix, given the
// already-mixed address hash (one hashAddr serves every level of a hierarchy
// walk).
func (l *PrivateLevel) set(hash uint64) (int, []uint64) {
	s := int(reduceRange(hash, l.numSets))
	base := s * l.ways
	return s, l.tags[base : base+l.fill[s] : base+l.ways]
}

// access is the fused probe+fill: one pass shifts each valid way down by one
// until it finds addr (a hit) or the last valid way falls off, and addr goes
// in front. A miss on a full set returns the fallen-off LRU line as the
// victim, which lets inclusive levels back-invalidate upstream; a miss on a
// set that is not full appends and evicts nothing (evicted is then 0 and
// meaningless). This is the hierarchy hot path.
func (l *PrivateLevel) access(hash, addr uint64) (hit bool, evicted uint64, evictedValid bool) {
	s, set := l.set(hash)
	prev := addr
	for i, cur := range set {
		set[i] = prev
		if cur == addr {
			return true, 0, false
		}
		prev = cur
	}
	if len(set) < l.ways {
		// In place: set's capacity ends at the set's last way.
		l.fill[s] = len(append(set, prev))
		return false, 0, false
	}
	return false, prev, true
}

// Reset returns the level to its freshly constructed state in place. Only
// the counts need clearing: ways past a set's count are never read.
func (l *PrivateLevel) Reset() {
	if l == nil {
		return
	}
	clear(l.fill)
}

// Invalidate removes addr from the level if present (back-invalidation from
// an inclusive lower level), closing the gap so the valid lines stay a
// recency-ordered prefix.
func (l *PrivateLevel) Invalidate(addr uint64) {
	s, set := l.set(hashAddr(addr))
	if i := slices.Index(set, addr); i >= 0 {
		copy(set[i:], set[i+1:])
		l.fill[s]--
	}
}

// Contains reports whether addr is cached (used by tests).
func (l *PrivateLevel) Contains(addr uint64) bool {
	_, set := l.set(hashAddr(addr))
	return slices.Contains(set, addr)
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
// both levels. The walk is allocation-free; in the common case (a miss in
// both private levels) it is one pass over each set followed by the LLC.
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
			}
			if hit {
				return LevelL2, true
			}
		}
	}
	return 0, false
}

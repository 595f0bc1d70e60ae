package cache

import (
	"fmt"

	"repro/internal/arena"
)

// SetAssoc is a set-associative cache array with LRU ordering inside each set.
// It supports three victim-selection modes: unpartitioned LRU, Vantage-style
// partitioning (soft partitioning on a set-associative array, as in Figure 13
// of the paper), and way-partitioning.
//
// Line state lives in one contiguous arena slab, four words per line
// (address, lastUse, metadata, part<<1|valid) in set-major order, so a whole
// set is one contiguous run: an access touches one storage range, and
// Seal/Fork give chunk-granular copy-on-write snapshots like the zcache's.
type SetAssoc struct {
	numSets  uint64
	ways     int
	mode     ReplacementMode
	slab     *arena.Arena
	words    []uint64 // 4 * numSets * ways, set-major
	parts    *partitionTable
	stats    Stats
	clock    uint64
	wayOwner []PartitionID // way -> owning partition (ModeWayPartition only)
}

// Per-line word layout within the slab.
const (
	saStride   = 4
	saAddr     = 0
	saUse      = 1
	saMeta     = 2
	saFlags    = 3 // part<<1 | valid
	saValidBit = uint64(1)
)

// NewSetAssoc builds a set-associative cache with totalLines lines and the
// given associativity, replacement mode and partition count. totalLines must
// be a multiple of ways and totalLines/ways must be a power of two.
func NewSetAssoc(totalLines uint64, ways int, mode ReplacementMode, numPartitions int) (*SetAssoc, error) {
	if ways <= 0 {
		return nil, fmt.Errorf("cache: ways must be positive, got %d", ways)
	}
	if numPartitions <= 0 {
		return nil, fmt.Errorf("cache: need at least one partition, got %d", numPartitions)
	}
	if totalLines == 0 || totalLines%uint64(ways) != 0 {
		return nil, fmt.Errorf("cache: total lines %d must be a positive multiple of ways %d", totalLines, ways)
	}
	numSets := totalLines / uint64(ways)
	if mode == ModeWayPartition && numPartitions > ways {
		return nil, fmt.Errorf("cache: way-partitioning cannot support %d partitions with %d ways", numPartitions, ways)
	}
	slab := arena.New(int(saStride * totalLines))
	c := &SetAssoc{
		numSets: numSets,
		ways:    ways,
		mode:    mode,
		slab:    slab,
		words:   slab.Data(),
		parts:   newPartitionTable(numPartitions),
	}
	if mode == ModeWayPartition {
		c.wayOwner = make([]PartitionID, ways)
		c.initWayOwner()
		c.syncTargetsFromWays()
	}
	return c, nil
}

// initWayOwner spreads ways evenly across partitions (the construction-time
// assignment, also restored by Reset).
func (c *SetAssoc) initWayOwner() {
	for w := 0; w < c.ways; w++ {
		c.wayOwner[w] = PartitionID(w % c.NumPartitions())
	}
}

// Mode returns the replacement mode.
func (c *SetAssoc) Mode() ReplacementMode { return c.mode }

// Ways returns the associativity.
func (c *SetAssoc) Ways() int { return c.ways }

// NumLines implements Cache.
func (c *SetAssoc) NumLines() uint64 { return c.numSets * uint64(c.ways) }

// NumPartitions implements Cache.
func (c *SetAssoc) NumPartitions() int { return len(c.parts.targets) }

// Stats implements Cache.
func (c *SetAssoc) Stats() Stats { return c.stats }

// PartitionStats implements Cache.
func (c *SetAssoc) PartitionStats(p PartitionID) PartitionStats {
	if !c.parts.valid(p) {
		return PartitionStats{}
	}
	return c.parts.stats[p]
}

// ResetStats implements Cache.
func (c *SetAssoc) ResetStats() {
	c.stats = Stats{}
	for i := range c.parts.stats {
		c.parts.stats[i] = PartitionStats{}
	}
}

// PartitionSize implements Cache.
func (c *SetAssoc) PartitionSize(p PartitionID) uint64 {
	if !c.parts.valid(p) {
		return 0
	}
	return c.parts.sizes[p]
}

// PartitionTarget implements Cache.
func (c *SetAssoc) PartitionTarget(p PartitionID) uint64 {
	if !c.parts.valid(p) {
		return 0
	}
	return c.parts.targets[p]
}

// SetPartitionTarget implements Cache. Under way-partitioning, targets are
// quantised to whole ways and the way assignment is recomputed; existing
// lines are not moved (reassigned ways are reclaimed lazily as their new
// owner misses), which is what makes way-partitioning transients slow and
// unpredictable.
func (c *SetAssoc) SetPartitionTarget(p PartitionID, lines uint64) {
	if !c.parts.valid(p) {
		return
	}
	c.parts.targets[p] = lines
	if c.mode == ModeWayPartition {
		c.assignWaysFromTargets()
	}
}

// assignWaysFromTargets converts line targets into whole-way ownership:
// each partition gets at least one way if its target is nonzero, remaining
// ways go to the partitions with the largest unmet targets.
func (c *SetAssoc) assignWaysFromTargets() {
	n := c.NumPartitions()
	linesPerWay := c.numSets
	wanted := make([]float64, n)
	for p := 0; p < n; p++ {
		wanted[p] = float64(c.parts.targets[p]) / float64(linesPerWay)
	}
	assigned := make([]int, n)
	remaining := c.ways
	// First pass: floor of wanted, at least one way for any nonzero target.
	for p := 0; p < n && remaining > 0; p++ {
		w := int(wanted[p])
		if w == 0 && c.parts.targets[p] > 0 {
			w = 1
		}
		if w > remaining {
			w = remaining
		}
		assigned[p] = w
		remaining -= w
	}
	// Second pass: hand out remaining ways by largest fractional remainder.
	for remaining > 0 {
		best, bestFrac := -1, -1.0
		for p := 0; p < n; p++ {
			frac := wanted[p] - float64(assigned[p])
			if frac > bestFrac {
				bestFrac = frac
				best = p
			}
		}
		if best < 0 {
			break
		}
		assigned[best]++
		remaining--
	}
	// Build the way->owner map in partition order.
	w := 0
	for p := 0; p < n; p++ {
		for k := 0; k < assigned[p] && w < c.ways; k++ {
			c.wayOwner[w] = PartitionID(p)
			w++
		}
	}
	for ; w < c.ways; w++ {
		c.wayOwner[w] = PartitionID(0)
	}
}

// syncTargetsFromWays sets the line targets implied by the current way
// ownership (used at construction time).
func (c *SetAssoc) syncTargetsFromWays() {
	counts := make([]uint64, c.NumPartitions())
	for _, owner := range c.wayOwner {
		counts[owner] += c.numSets
	}
	copy(c.parts.targets, counts)
}

// Access implements Cache. This is one of the simulator's two hot paths: the
// hit scan is a single pass over the set's contiguous words with the
// per-partition stat row hoisted out, set indexing avoids the 64-bit modulo,
// and a single EnsureRange covers the whole set's copy-on-write chunks.
func (c *SetAssoc) Access(addr uint64, part PartitionID, meta uint64) AccessResult {
	if uint(part) >= uint(len(c.parts.stats)) {
		part = 0
	}
	c.clock++
	c.stats.Accesses++
	ps := &c.parts.stats[part]
	ps.Accesses++

	setIdx := reduceRange(hashAddr(addr), c.numSets)
	base := setIdx * uint64(c.ways) * saStride
	end := base + uint64(c.ways)*saStride
	if c.slab.Pending() {
		c.slab.EnsureRange(base, end)
	}
	set := c.words[base:end]

	// Lookup.
	for i := 0; i < len(set); i += saStride {
		if set[i+saAddr] == addr && set[i+saFlags]&saValidBit != 0 {
			c.stats.Hits++
			ps.Hits++
			res := AccessResult{Hit: true, PrevMeta: set[i+saMeta]}
			set[i+saUse] = c.clock
			set[i+saMeta] = meta
			// A hit does not change partition ownership of the line: in the
			// workloads used here address spaces are disjoint per app, so
			// cross-partition hits do not occur in practice.
			return res
		}
	}

	// Miss: pick a victim way.
	c.stats.Misses++
	ps.Misses++
	victim, forced := c.chooseVictim(set, part)
	res := AccessResult{}
	v := set[victim*saStride : victim*saStride+saStride]
	if v[saFlags]&saValidBit != 0 {
		vp := PartitionID(v[saFlags] >> 1)
		res.Evicted = true
		res.EvictedPartition = vp
		res.ForcedEviction = forced
		c.stats.Evictions++
		if forced {
			c.stats.ForcedEvictions++
		}
		if uint(vp) < uint(len(c.parts.stats)) {
			c.parts.stats[vp].Evictions++
			if c.parts.sizes[vp] > 0 {
				c.parts.sizes[vp]--
			}
		}
	}
	v[saAddr] = addr
	v[saUse] = c.clock
	v[saMeta] = meta
	v[saFlags] = uint64(part)<<1 | saValidBit
	c.parts.sizes[part]++
	return res
}

// chooseVictim selects the way to replace within a set (given as its word
// slice) and reports whether the eviction was "forced" (victim from a
// partition at or below its target).
func (c *SetAssoc) chooseVictim(set []uint64, part PartitionID) (int, bool) {
	// Invalid ways are always preferred.
	switch c.mode {
	case ModeWayPartition:
		// Only the ways owned by this partition are candidates.
		bestIdx, bestUse := -1, uint64(0)
		for w := 0; w < c.ways; w++ {
			if c.wayOwner[w] != part {
				continue
			}
			ln := set[w*saStride : w*saStride+saStride]
			if ln[saFlags]&saValidBit == 0 {
				return w, false
			}
			if bestIdx < 0 || ln[saUse] < bestUse {
				bestIdx, bestUse = w, ln[saUse]
			}
		}
		if bestIdx < 0 {
			// The partition owns no ways (target 0): fall back to global LRU.
			return c.lruVictim(set), true
		}
		// Evicting another partition's leftover line from a reclaimed way is
		// not a forced eviction; evicting our own line while at/below target
		// is normal way-partition behaviour, also not "forced".
		return bestIdx, false
	case ModeVantage:
		for w := 0; w < c.ways; w++ {
			if set[w*saStride+saFlags]&saValidBit == 0 {
				return w, false
			}
		}
		// Prefer the most over-quota partition; among its lines, the LRU one.
		// Quota state is read through hoisted slices so the scan stays free of
		// bounds checks on the partition table.
		targets, sizes := c.parts.targets, c.parts.sizes
		bestIdx, bestUse, bestOver := -1, uint64(0), uint64(0)
		for w := 0; w < c.ways; w++ {
			ln := set[w*saStride : w*saStride+saStride]
			p := ln[saFlags] >> 1
			size := sizes[p]
			if PartitionID(p) == part {
				size++
			}
			if size <= targets[p] {
				continue
			}
			over := size - targets[p]
			if bestIdx < 0 || over > bestOver || (over == bestOver && ln[saUse] < bestUse) {
				bestIdx, bestUse, bestOver = w, ln[saUse], over
			}
		}
		if bestIdx >= 0 {
			return bestIdx, false
		}
		// No over-quota candidate in this set: forced eviction (the situation
		// that makes Vantage on low-associativity arrays lose its guarantees).
		return c.lruVictim(set), true
	default: // ModeLRU
		for w := 0; w < c.ways; w++ {
			if set[w*saStride+saFlags]&saValidBit == 0 {
				return w, false
			}
		}
		return c.lruVictim(set), false
	}
}

func (c *SetAssoc) lruVictim(set []uint64) int {
	best, bestUse := 0, set[saUse]
	for w := 1; w < c.ways; w++ {
		if use := set[w*saStride+saUse]; use < bestUse {
			best, bestUse = w, use
		}
	}
	return best
}

// setAssocSnapshot is a sealed set-associative image, mirroring the zcache's.
type setAssocSnapshot struct {
	tpl  SetAssoc
	snap *arena.Snapshot
}

// Seal implements Cache.
func (c *SetAssoc) Seal() Sealed {
	snap := c.slab.Seal()
	c.words = c.slab.Data()
	tpl := *c
	tpl.parts = c.parts.clone()
	if c.wayOwner != nil {
		tpl.wayOwner = append([]PartitionID(nil), c.wayOwner...)
	}
	tpl.slab = nil
	tpl.words = nil
	return &setAssocSnapshot{tpl: tpl, snap: snap}
}

// Fork implements Sealed.
func (zs *setAssocSnapshot) Fork() Cache {
	n := zs.tpl
	n.parts = zs.tpl.parts.clone()
	if zs.tpl.wayOwner != nil {
		n.wayOwner = append([]PartitionID(nil), zs.tpl.wayOwner...)
	}
	n.slab = zs.snap.Fork()
	n.words = n.slab.Data()
	return &n
}

// Reset returns the cache to its freshly constructed state without new
// allocations: the slab is detached from any parent snapshot and zeroed in
// place, partition state and counters are cleared, and the way assignment is
// restored to the construction-time spread.
func (c *SetAssoc) Reset() {
	c.slab.Reset()
	c.words = c.slab.Data()
	c.clock = 0
	c.stats = Stats{}
	c.parts.reset()
	if c.wayOwner != nil {
		c.initWayOwner()
		c.syncTargetsFromWays()
	}
}

// Contains reports whether addr is currently cached (used by tests).
func (c *SetAssoc) Contains(addr uint64) bool {
	setIdx := reduceRange(hashAddr(addr), c.numSets)
	base := setIdx * uint64(c.ways) * saStride
	c.slab.EnsureRange(base, base+uint64(c.ways)*saStride)
	for w := 0; w < c.ways; w++ {
		i := base + uint64(w)*saStride
		if c.words[i+saFlags]&saValidBit != 0 && c.words[i+saAddr] == addr {
			return true
		}
	}
	return false
}

var _ Cache = (*SetAssoc)(nil)

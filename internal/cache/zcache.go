package cache

import (
	"fmt"
	"math/bits"
)

// ZCache is a skew-associative cache in the style of Sanchez & Kozyrakis
// (MICRO 2010): each way indexes the array with its own hash function, and on
// a replacement the cache walks the candidate graph (lines that could be
// relocated into the slots of other candidates) to expand the number of
// replacement candidates far beyond the number of ways. The paper's default
// LLC is a 4-way, 52-candidate zcache partitioned with Vantage.
//
// The high, pattern-independent number of replacement candidates is what lets
// Vantage guarantee that a partition below its target allocation is
// essentially never victimised — the property Ubik's transient analysis needs.
//
// The replacement walk is the simulator's hottest code (every simulated miss
// visits ~candidates scattered slots), and its cost is instructions and
// branch mispredicts, not memory: the whole array sits in the host L2. So the
// array is one contiguous slab of 32-byte slots, [addr, info, meta, stamp]
// per line, and a slot never straddles a host cache line:
//
//   - a hit reads and writes one host line, and the walk's info load brings
//     in the address a BFS expansion of that node needs;
//   - stamp is the generation of the last walk that visited the slot, so
//     "already a candidate" is a compare against a word the info load already
//     fetched, and clearing between walks is one counter increment. Stamps
//     are part of the slab, and the generation keeps counting across Reset;
//   - victims are scored without branches. Which candidate is best so far is
//     data-dependent and mispredicts (the unpartitioned LRU walk used to
//     measure slower than the Vantage one for exactly that reason), so the
//     running best is updated through a borrow-derived select mask instead.
//
// All walk state is preallocated; an access never allocates.
type ZCache struct {
	numSetsPerWay uint64
	ways          int
	candidates    int
	mode          ReplacementMode
	words         []uint64 // slab storage: slotWords words per line
	parts         *partitionTable
	stats         Stats
	clock         uint64
	gen           uint64 // generation of the last replacement walk

	// Walk scratch, reused across replacements to keep the miss path
	// allocation-free.
	walkNodes []walkNode
	overTab   []uint64 // per-partition quota excess, rebuilt at each Vantage walk
	wayMuls   []uint64 // per-way odd multipliers for skewed indexing
}

// Layout of a slot. The slab base is 32-byte aligned
// (TestSlotsDoNotStraddleHostLines), so a slot never spans two host cache
// lines.
const (
	slotWords = 4
	slotAddr  = 0
	slotInfo  = 1
	slotMeta  = 2
	slotStamp = 3
)

// Packing of the per-slot info word. The access clock fits comfortably in 48
// bits (2.8e14 accesses per cache instance); the partition count is capped at
// construction so the id fits in its field.
const (
	zValidBit  = uint64(1)
	zPartShift = 1
	zPartMask  = uint64(0x7fff)
	zUseShift  = 16
	zMaxParts  = int(zPartMask)
)

// infoPart extracts the owning partition from an info word.
func infoPart(inf uint64) PartitionID {
	return PartitionID(inf >> zPartShift & zPartMask)
}

// walkNode is one node of the replacement-candidate BFS: the word offset of
// its slot in the slab and its parent's index in the walk buffer (-1 for the
// incoming address's own slots).
type walkNode struct {
	off    uint64
	parent int32
}

// NewZCache builds a zcache with totalLines lines, the given number of ways
// (hash functions) and replacement candidates per eviction. totalLines must be
// a positive multiple of ways; the per-way set count need not be a power of
// two (the paper-default 6144/4 = 1536 is not). candidates must be at least
// ways.
func NewZCache(totalLines uint64, ways, candidates int, mode ReplacementMode, numPartitions int) (*ZCache, error) {
	if ways <= 0 {
		return nil, fmt.Errorf("cache: zcache ways must be positive, got %d", ways)
	}
	if candidates < ways {
		return nil, fmt.Errorf("cache: zcache candidates %d must be >= ways %d", candidates, ways)
	}
	if numPartitions <= 0 {
		return nil, fmt.Errorf("cache: need at least one partition, got %d", numPartitions)
	}
	if numPartitions > zMaxParts {
		return nil, fmt.Errorf("cache: zcache supports at most %d partitions, got %d", zMaxParts, numPartitions)
	}
	if mode == ModeWayPartition {
		return nil, fmt.Errorf("cache: way-partitioning is not defined for zcaches")
	}
	if totalLines == 0 || totalLines%uint64(ways) != 0 {
		return nil, fmt.Errorf("cache: total lines %d must be a positive multiple of ways %d", totalLines, ways)
	}
	// Each way indexes through its own odd multiplier applied to one shared
	// base mix of the address: a full independent hash per way costs ~3x more
	// on the walk, and multiply-shift families are what hardware skew caches
	// use anyway.
	wayMuls := make([]uint64, ways)
	for w := range wayMuls {
		wayMuls[w] = splitmix64(uint64(w)) | 1
	}
	return &ZCache{
		numSetsPerWay: totalLines / uint64(ways),
		ways:          ways,
		candidates:    candidates,
		mode:          mode,
		words:         make([]uint64, slotWords*totalLines),
		parts:         newPartitionTable(numPartitions),
		walkNodes:     make([]walkNode, candidates),
		overTab:       make([]uint64, numPartitions),
		wayMuls:       wayMuls,
	}, nil
}

// Mode returns the replacement mode.
func (c *ZCache) Mode() ReplacementMode { return c.mode }

// Ways returns the number of hash ways.
func (c *ZCache) Ways() int { return c.ways }

// Candidates returns the replacement-walk candidate budget.
func (c *ZCache) Candidates() int { return c.candidates }

// NumLines implements Cache.
func (c *ZCache) NumLines() uint64 { return uint64(c.ways) * c.numSetsPerWay }

// NumPartitions implements Cache.
func (c *ZCache) NumPartitions() int { return len(c.parts.targets) }

// Stats implements Cache.
func (c *ZCache) Stats() Stats { return c.stats }

// PartitionStats implements Cache.
func (c *ZCache) PartitionStats(p PartitionID) PartitionStats {
	if !c.parts.valid(p) {
		return PartitionStats{}
	}
	return c.parts.stats[p]
}

// ResetStats implements Cache.
func (c *ZCache) ResetStats() {
	c.stats = Stats{}
	for i := range c.parts.stats {
		c.parts.stats[i] = PartitionStats{}
	}
}

// PartitionSize implements Cache.
func (c *ZCache) PartitionSize(p PartitionID) uint64 {
	if !c.parts.valid(p) {
		return 0
	}
	return c.parts.sizes[p]
}

// PartitionTarget implements Cache.
func (c *ZCache) PartitionTarget(p PartitionID) uint64 {
	if !c.parts.valid(p) {
		return 0
	}
	return c.parts.targets[p]
}

// SetPartitionTarget implements Cache. Resizing a Vantage partition moves no
// lines: a downsized partition simply becomes eligible for demotion on future
// replacements, and an upsized partition grows by one line per miss until it
// reaches its new target.
func (c *ZCache) SetPartitionTarget(p PartitionID, lines uint64) {
	if !c.parts.valid(p) {
		return
	}
	c.parts.targets[p] = lines
}

// slotOffset returns the word offset in the slab of the slot that an address
// with base hash h maps to in the given way. The hash is folded through the
// way's multiplier so callers that probe several ways pay the full address mix
// only once.
func (c *ZCache) slotOffset(h uint64, way int) uint64 {
	return (uint64(way)*c.numSetsPerWay + reduceRange(h*c.wayMuls[way], c.numSetsPerWay)) * slotWords
}

// Access implements Cache.
func (c *ZCache) Access(addr uint64, part PartitionID, meta uint64) AccessResult {
	if uint(part) >= uint(len(c.parts.stats)) {
		part = 0
	}
	c.clock++
	c.stats.Accesses++
	ps := &c.parts.stats[part]
	ps.Accesses++

	// Lookup: the line can only be in one of its ways' positions, and
	// everything a hit reads or writes is in that one slot.
	words := c.words
	h := baseHash(addr)
	for w := 0; w < c.ways; w++ {
		off := c.slotOffset(h, w)
		s := words[off : off+slotWords : off+slotWords]
		if inf := s[slotInfo]; s[slotAddr] == addr && inf&zValidBit != 0 {
			c.stats.Hits++
			ps.Hits++
			res := AccessResult{Hit: true, PrevMeta: s[slotMeta]}
			// A hit refreshes the line's recency but must not change its
			// partition ownership (in the workloads used here address
			// spaces are disjoint per app, but the occupancy counters
			// would silently diverge if a cross-partition hit relabelled
			// the line without moving the sizes).
			s[slotInfo] = c.clock<<zUseShift | inf&(1<<zUseShift-1)
			s[slotMeta] = meta
			return res
		}
	}

	// Miss: run the replacement walk.
	c.stats.Misses++
	ps.Misses++

	victim, forced := c.replacementWalk(h, part)
	nodes := c.walkNodes
	res := AccessResult{}
	if vinf := words[nodes[victim].off+slotInfo]; vinf&zValidBit != 0 {
		vp := infoPart(vinf)
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
	// Relocation chain: move each ancestor's line into its child's slot,
	// freeing a root slot for the incoming line. Stamps stay behind: they
	// belong to the slot, not the line.
	node := nodes[victim]
	for node.parent >= 0 {
		parent := nodes[node.parent]
		copy(words[node.off:node.off+slotStamp], words[parent.off:parent.off+slotStamp])
		node = parent
	}
	s := words[node.off : node.off+slotWords : node.off+slotWords]
	s[slotAddr] = addr
	s[slotInfo] = c.clock<<zUseShift | uint64(part)<<zPartShift | zValidBit
	s[slotMeta] = meta
	c.parts.sizes[part]++
	return res
}

// replacementWalk expands replacement candidates breadth-first from the slots
// of the incoming address (base hash h) and picks a victim according to the
// replacement mode, returning the chosen node's index in the walk buffer (so
// the relocation chain can be applied) and whether the eviction was forced.
//
// A slot becomes a candidate the first time a walk reaches it: its stamp is
// compared against, then set to, this walk's generation. The incoming
// address's own slots are expanded exactly like any other node's children,
// and a node's child in its own way needs no special case — it is the node's
// own slot, which is already stamped.
//
// Candidates are scored as they are appended. An invalid slot wins outright
// and ends the walk. Otherwise the victim is the candidate with the greatest
// (quota excess, ^lastUse) pair, first one winning ties: the most over-quota
// partition's least recently used line under Vantage, and — because the pair
// degenerates to ^lastUse when no candidate is over quota — the global LRU
// line when the eviction has to be forced. In LRU mode the excess table stays
// all-zero and the same comparison is plain LRU. The running best is replaced
// through a select mask derived from the borrow of a two-word subtraction, so
// scoring costs no data-dependent branch.
func (c *ZCache) replacementWalk(h uint64, inserting PartitionID) (int, bool) {
	// Partition sizes and targets cannot change during a walk, so the quota
	// excess each candidate would be scored with is precomputed per
	// partition; scoring a candidate is then a single indexed load.
	over := c.overTab
	if c.mode == ModeVantage {
		targets, sizes := c.parts.targets, c.parts.sizes
		for p := range over {
			size := sizes[p]
			if PartitionID(p) == inserting {
				size++
			}
			over[p] = 0
			if size > targets[p] {
				over[p] = size - targets[p]
			}
		}
	}

	// Only the state the loop carries from one candidate to the next lives in
	// locals. The read-only configuration is deliberately read through the
	// receiver: those loads hit the host L1 and fold into the instructions
	// that use them, whereas hoisting them too leaves the compiler short of
	// registers and it spills the loop-carried values instead.
	c.gen++
	words := c.words

	var best, bestOver, bestNotUse uint64
	// The buffer itself is the BFS queue: scan is the node being expanded,
	// starting from the virtual parent (-1) of the incoming address's slots,
	// and w the way its next child is looked up in.
	n, w, scan := 0, 0, int32(-1)
	for n < len(c.walkNodes) {
		off := c.slotOffset(h, w)
		s := words[off : off+slotWords : off+slotWords]
		if s[slotStamp] != c.gen {
			s[slotStamp] = c.gen
			c.walkNodes[n] = walkNode{off: off, parent: scan}
			inf := s[slotInfo]
			if inf&zValidBit == 0 {
				return n, false
			}
			o, notUse := c.overTab[inf>>zPartShift&zPartMask], ^(inf >> zUseShift)
			_, lt := bits.Sub64(bestNotUse, notUse, 0)
			_, lt = bits.Sub64(bestOver, o, lt)
			sel := -lt // all ones iff (bestOver, bestNotUse) < (o, notUse)
			best ^= (best ^ uint64(n)) & sel
			bestOver ^= (bestOver ^ o) & sel
			bestNotUse ^= (bestNotUse ^ notUse) & sel
			n++
		}
		if w++; w == len(c.wayMuls) {
			// Every node reached here holds a valid line (an invalid slot
			// would have ended the walk above), and its address is on the
			// host line its info load already brought in.
			if scan++; int(scan) >= n {
				break
			}
			w, h = 0, baseHash(words[c.walkNodes[scan].off+slotAddr])
		}
	}
	// All candidates at or below target under Vantage: forced (the situation
	// the large walk makes negligibly rare).
	return int(best), c.mode == ModeVantage && bestOver == 0
}

// Reset implements Cache: the slab is zeroed in place, and partition state
// and counters are cleared. The walk generation keeps counting, so no stamp
// written before the reset can alias a later walk.
func (c *ZCache) Reset() {
	clear(c.words)
	c.clock = 0
	c.stats = Stats{}
	c.parts.reset()
}

// Contains reports whether addr is currently cached (used by tests).
func (c *ZCache) Contains(addr uint64) bool {
	h := baseHash(addr)
	for w := 0; w < c.ways; w++ {
		off := c.slotOffset(h, w)
		if c.words[off+slotAddr] == addr && c.words[off+slotInfo]&zValidBit != 0 {
			return true
		}
	}
	return false
}

var _ Cache = (*ZCache)(nil)

package cache

import (
	"fmt"

	"repro/internal/arena"
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
// visits ~candidates scattered slots), so the array lives in one contiguous
// arena slab laid out for the walk's access pattern: each slot's address and
// replacement-state word are adjacent (a 16-byte pair, always within one
// cache line), so the walk's info load warms the address load that a BFS
// expansion of the same node needs, and the lookup's address load warms the
// info load of a hit. Caller metadata, touched only on hits and evictions,
// sits in a separate region of the same slab. Candidates are scored as they
// are appended (no separate victim-selection passes), duplicate slots are
// rejected through a small generation-stamped hash table instead of a linear
// scan, and slot indexing is divide-free. All walk state is preallocated; an
// access never allocates.
//
// The slab makes snapshots cheap: Seal freezes the whole array as an
// immutable arena.Snapshot and Fork starts a copy-on-write child that
// materialises 4 KiB chunks only as accesses touch them, so forking stops
// scaling with the LLC size.
type ZCache struct {
	numSetsPerWay uint64
	ways          int
	candidates    int
	mode          ReplacementMode
	slab          *arena.Arena
	words         []uint64 // slab storage: [0,2n) (addr,info) pairs, [2n,3n) metas
	metaOff       uint64   // = 2 * NumLines
	parts         *partitionTable
	stats         Stats
	clock         uint64

	// Walk state, reused across replacements to keep the miss path
	// allocation-free. seenTab is an open-addressing hash set of slot
	// positions; a slot is "in the set" when its entry's generation stamp
	// equals the current walk's generation, so clearing between walks is a
	// single counter increment. Stamp and position share one entry so a probe
	// touches a single cache line.
	walkNodes []walkNode
	seenTab   []seenEntry
	seenMask  uint64
	gen       uint64
	overTab   []uint64 // per-partition quota excess, rebuilt at each walk
	wayMuls   []uint64 // per-way odd multipliers for skewed indexing
	posBuf    []uint64 // lookup probe positions, handed to the walk as roots
}

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

// seenEntry is one slot of the walk's dedup hash set.
type seenEntry struct {
	gen uint64
	pos uint64
}

// walkNode is one node of the replacement-candidate BFS. pos is the slot's
// position in the slot arrays, way the hash way that produced it, and parent
// indexes into the walk buffer (-1 for roots).
type walkNode struct {
	pos    uint64
	way    int32
	parent int32
}

// NewZCache builds a zcache with totalLines lines, the given number of ways
// (hash functions) and replacement candidates per eviction. totalLines must be
// a multiple of ways, and totalLines/ways must be a power of two.
// candidates must be at least ways.
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
	setsPerWay := totalLines / uint64(ways)
	// Size the dedup table at ≥4x the maximum number of walk entries so probe
	// chains stay short; it lives in L1 for the default 52-candidate
	// configuration.
	seenSize := uint64(64)
	for seenSize < uint64(4*(candidates+ways)) {
		seenSize *= 2
	}
	// Each way indexes through its own odd multiplier applied to one shared
	// base mix of the address: a full independent hash per way costs ~3x more
	// on the walk, and multiply-shift families are what hardware skew caches
	// use anyway.
	wayMuls := make([]uint64, ways)
	for w := range wayMuls {
		wayMuls[w] = splitmix64(uint64(w)) | 1
	}
	slab := arena.New(int(3 * totalLines))
	return &ZCache{
		numSetsPerWay: setsPerWay,
		ways:          ways,
		candidates:    candidates,
		mode:          mode,
		slab:          slab,
		words:         slab.Data(),
		metaOff:       2 * totalLines,
		parts:         newPartitionTable(numPartitions),
		walkNodes:     make([]walkNode, 0, candidates+ways),
		seenTab:       make([]seenEntry, seenSize),
		seenMask:      seenSize - 1,
		overTab:       make([]uint64, numPartitions),
		wayMuls:       wayMuls,
		posBuf:        make([]uint64, ways),
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

// slotIndex returns the position in the slot arrays of addr's slot in the
// given way. baseHash(addr) is folded through the way's multiplier so callers
// that probe several ways pay the full address mix only once.
func (c *ZCache) slotIndex(addr uint64, way int) uint64 {
	return c.slotIndexHashed(baseHash(addr), way)
}

func (c *ZCache) slotIndexHashed(h uint64, way int) uint64 {
	return uint64(way)*c.numSetsPerWay + reduceRange(h*c.wayMuls[way], c.numSetsPerWay)
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
	newInfo := c.clock<<zUseShift | uint64(part)<<zPartShift | zValidBit

	// Lookup: the line can only be in one of its ways' positions. A slot's
	// address and info words form one 16-byte pair, so the valid-bit check on
	// an address match is served from the line the address load just pulled
	// in. Pairs start at even word offsets and the copy-on-write chunk size is
	// even, so one Ensure covers both words of a pair.
	slab := c.slab
	pending := slab.Pending()
	words := c.words
	h := baseHash(addr)
	posBuf := c.posBuf
	for w := 0; w < c.ways; w++ {
		pos := c.slotIndexHashed(h, w)
		posBuf[w] = pos
		if pending {
			slab.Ensure(2 * pos)
		}
		if words[2*pos] == addr {
			if inf := words[2*pos+1]; inf&zValidBit != 0 {
				c.stats.Hits++
				ps.Hits++
				mi := c.metaOff + pos
				if pending {
					slab.Ensure(mi)
				}
				res := AccessResult{Hit: true, PrevMeta: words[mi]}
				// A hit refreshes the line's recency but must not change its
				// partition ownership (in the workloads used here address
				// spaces are disjoint per app, but the occupancy counters
				// would silently diverge if a cross-partition hit relabelled
				// the line without moving the sizes).
				words[2*pos+1] = c.clock<<zUseShift | inf&(1<<zUseShift-1)
				words[mi] = meta
				return res
			}
		}
	}

	// Miss: run the replacement walk.
	c.stats.Misses++
	ps.Misses++

	victimIdx, forced := c.replacementWalk(part)
	all := c.walkNodes
	res := AccessResult{}
	vpos := all[victimIdx].pos
	if vinf := words[2*vpos+1]; vinf&zValidBit != 0 {
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
	// freeing a root slot for the incoming line. Every position on the chain
	// is a walk node, whose pair the walk already materialised; only the
	// metadata words may still live in the parent snapshot.
	pending = slab.Pending()
	node := victimIdx
	for all[node].parent >= 0 {
		parent := all[node].parent
		dst, src := all[node].pos, all[parent].pos
		if pending {
			slab.Ensure(c.metaOff + dst)
			slab.Ensure(c.metaOff + src)
		}
		words[2*dst] = words[2*src]
		words[2*dst+1] = words[2*src+1]
		words[c.metaOff+dst] = words[c.metaOff+src]
		node = int(parent)
	}
	ipos := all[node].pos
	if pending {
		slab.Ensure(c.metaOff + ipos)
	}
	words[2*ipos] = addr
	words[2*ipos+1] = newInfo
	words[c.metaOff+ipos] = meta
	c.parts.sizes[part]++
	return res
}

// replacementWalk expands replacement candidates breadth-first starting from
// the incoming address's own slots (whose positions the missed lookup left in
// posBuf) and picks a victim according to the replacement mode, returning the chosen node's index in the walk buffer (so
// the relocation chain can be applied) and whether the eviction was forced.
//
// Candidates are scored as they are appended, fusing what used to be three
// separate passes (invalid scan, Vantage quota scan, LRU scan) into the
// expansion itself: an invalid slot wins outright and ends the walk early,
// and the best over-quota and global-LRU candidates are tracked incrementally
// in append order, which preserves the exact victim choice of a sequential
// scan of the full candidate buffer.
func (c *ZCache) replacementWalk(inserting PartitionID) (int, bool) {
	// Everything the loops touch is hoisted into locals: the stores into the
	// walk buffers would otherwise force reloads of the receiver's fields on
	// every candidate.
	c.gen++
	gen := c.gen
	slab := c.slab
	pending := slab.Pending()
	words := c.words
	seen, seenMask := c.seenTab, c.seenMask
	nodes := c.walkNodes[:cap(c.walkNodes)]
	n := 0
	ways := c.ways
	cand := c.candidates
	spw := c.numSetsPerWay
	muls := c.wayMuls

	// Partition sizes and targets cannot change during a walk, so the quota
	// excess each candidate would be scored with is precomputed per
	// partition; scoring a candidate is then a single indexed load.
	over := c.overTab
	targets, sizes := c.parts.targets, c.parts.sizes
	for p := range over {
		size := sizes[p]
		if PartitionID(p) == inserting {
			size++
		}
		if size > targets[p] {
			over[p] = size - targets[p]
		} else {
			over[p] = 0
		}
	}

	bestVan := -1                   // best over-quota candidate (ModeVantage)
	var bestOver, bestVanUse uint64 // its quota excess and lastUse
	lruIdx, lruUse := 0, ^uint64(0) // global LRU candidate (fallback / ModeLRU)

	// Roots: the incoming address's own slots, whose positions (and pairs —
	// the lookup ensured them) the lookup that just missed already computed.
	roots := c.posBuf
	for w := 0; w < ways; w++ {
		pos := roots[w]
		si := pos * 0x9e3779b97f4a7c15 >> 32
		for {
			e := &seen[si&seenMask]
			if e.gen != gen {
				e.gen, e.pos = gen, pos
				break
			}
			if e.pos == pos {
				goto nextRoot
			}
			si++
		}
		{
			i := n
			nodes[i] = walkNode{pos: pos, way: int32(w), parent: -1}
			n++
			inf := words[2*pos+1]
			if inf&zValidBit == 0 {
				c.walkNodes = nodes[:n]
				return i, false
			}
			use := inf >> zUseShift
			if use < lruUse {
				lruIdx, lruUse = i, use
			}
			if o := over[inf>>zPartShift&zPartMask]; o != 0 && (o > bestOver || (o == bestOver && use < bestVanUse)) {
				bestVan, bestOver, bestVanUse = i, o, use
			}
		}
	nextRoot:
	}

	// Expand breadth-first (the buffer itself is the queue) until the
	// candidate budget is reached. Every node reached here holds a valid line
	// (an invalid slot would have ended the walk above), and the address load
	// of an expanded node is served from the cache line its info load already
	// brought in.
	for scan := 0; scan < n && n < cand; scan++ {
		node := nodes[scan]
		nodeHash := baseHash(words[2*node.pos])
		for w := 0; w < ways; w++ {
			if int32(w) == node.way {
				continue
			}
			if n >= cand {
				break
			}
			pos := uint64(w)*spw + reduceRange(nodeHash*muls[w], spw)
			si := pos * 0x9e3779b97f4a7c15 >> 32
			for {
				e := &seen[si&seenMask]
				if e.gen != gen {
					e.gen, e.pos = gen, pos
					break
				}
				if e.pos == pos {
					goto nextChild
				}
				si++
			}
			{
				i := n
				nodes[i] = walkNode{pos: pos, way: int32(w), parent: int32(scan)}
				n++
				if pending {
					slab.Ensure(2 * pos)
				}
				inf := words[2*pos+1]
				if inf&zValidBit == 0 {
					c.walkNodes = nodes[:n]
					return i, false
				}
				use := inf >> zUseShift
				if use < lruUse {
					lruIdx, lruUse = i, use
				}
				if o := over[inf>>zPartShift&zPartMask]; o != 0 && (o > bestOver || (o == bestOver && use < bestVanUse)) {
					bestVan, bestOver, bestVanUse = i, o, use
				}
			}
		nextChild:
		}
	}
	c.walkNodes = nodes[:n]

	if c.mode == ModeVantage {
		if bestVan >= 0 {
			return bestVan, false
		}
		// All candidates belong to partitions at/below target: forced (the
		// situation the large walk makes negligibly rare).
		return lruIdx, true
	}
	return lruIdx, false // ModeLRU
}

// zcacheSnapshot is a sealed zcache image: the slot slab as an immutable
// arena snapshot plus a frozen copy of the scalar state and partition table.
type zcacheSnapshot struct {
	tpl  ZCache
	snap *arena.Snapshot
}

// Seal implements Cache. The slot slab is frozen into an immutable snapshot
// (O(1) when the cache is itself an untouched fork of an earlier snapshot —
// repeated checkpoints of a paused simulation cost nothing) and the receiver
// keeps running as a copy-on-write fork of it.
func (c *ZCache) Seal() Sealed {
	snap := c.slab.Seal()
	c.words = c.slab.Data()
	tpl := *c
	tpl.parts = c.parts.clone()
	tpl.slab = nil
	tpl.words = nil
	tpl.walkNodes = nil
	tpl.seenTab = nil
	tpl.overTab = nil
	tpl.posBuf = nil
	tpl.gen = 0
	return &zcacheSnapshot{tpl: tpl, snap: snap}
}

// Fork implements Sealed: it builds an independent zcache whose slab is a
// lazy copy-on-write fork of the snapshot, so the fork's cost is bookkeeping
// proportional to the chunk count, not the LLC size.
func (zs *zcacheSnapshot) Fork() Cache {
	n := zs.tpl
	n.parts = zs.tpl.parts.clone()
	n.slab = zs.snap.Fork()
	n.words = n.slab.Data()
	n.walkNodes = make([]walkNode, 0, n.candidates+n.ways)
	n.seenTab = make([]seenEntry, zs.tpl.seenMask+1)
	n.overTab = make([]uint64, len(n.parts.targets))
	n.posBuf = make([]uint64, n.ways)
	return &n
}

// Reset returns the cache to its freshly constructed state without new
// allocations: the slab is detached from any parent snapshot and zeroed in
// place, and partition state and counters are cleared. The walk's dedup table
// and generation counter are deliberately kept (the generation keeps
// counting, so stale stamps can never alias a future walk, and scratch
// contents never influence a walk's outcome).
func (c *ZCache) Reset() {
	c.slab.Reset()
	c.words = c.slab.Data()
	c.clock = 0
	c.stats = Stats{}
	c.parts.reset()
}

// Contains reports whether addr is currently cached (used by tests).
func (c *ZCache) Contains(addr uint64) bool {
	for w := 0; w < c.ways; w++ {
		pos := c.slotIndex(addr, w)
		c.slab.Ensure(2 * pos)
		if c.words[2*pos] == addr && c.words[2*pos+1]&zValidBit != 0 {
			return true
		}
	}
	return false
}

var _ Cache = (*ZCache)(nil)

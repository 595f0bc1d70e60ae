package cache

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"
)

// refZCache is a deliberately plain zcache the optimised ZCache is checked
// against: one struct per line, a linear scan for walk dedup, and victim
// selection as three separate passes over the finished candidate list. It
// shares only the index functions (baseHash, the per-way multipliers and
// reduceRange) with the real array, so any divergence is the walk's.
type refZCache struct {
	ways, cand       int
	spw              uint64
	mode             ReplacementMode
	lines            []refLine
	targets, sizes   []uint64
	clock            uint64
	hits, misses     uint64
	evictions, force uint64
}

type refLine struct {
	valid      bool
	addr, meta uint64
	use        uint64
	part       PartitionID
}

type refNode struct {
	pos         uint64
	way, parent int
}

func newRefZCache(totalLines uint64, ways, cand int, mode ReplacementMode, parts int) *refZCache {
	return &refZCache{
		ways: ways, cand: cand, spw: totalLines / uint64(ways), mode: mode,
		lines:   make([]refLine, totalLines),
		targets: make([]uint64, parts),
		sizes:   make([]uint64, parts),
	}
}

func (r *refZCache) clone() *refZCache {
	c := *r
	c.lines = append([]refLine(nil), r.lines...)
	c.targets = append([]uint64(nil), r.targets...)
	c.sizes = append([]uint64(nil), r.sizes...)
	return &c
}

func (r *refZCache) reset() {
	clear(r.lines)
	clear(r.targets)
	clear(r.sizes)
	r.clock, r.hits, r.misses, r.evictions, r.force = 0, 0, 0, 0, 0
}

func (r *refZCache) slot(addr uint64, way int) uint64 {
	mul := splitmix64(uint64(way)) | 1
	return uint64(way)*r.spw + reduceRange(baseHash(addr)*mul, r.spw)
}

func (r *refZCache) contains(addr uint64) bool {
	for w := 0; w < r.ways; w++ {
		if l := r.lines[r.slot(addr, w)]; l.valid && l.addr == addr {
			return true
		}
	}
	return false
}

func (r *refZCache) over(p, inserting PartitionID) uint64 {
	size := r.sizes[p]
	if p == inserting {
		size++
	}
	if size > r.targets[p] {
		return size - r.targets[p]
	}
	return 0
}

// candidates expands the replacement walk breadth-first from addr's own
// slots: every distinct slot counts once, lines already holding nothing are
// not expanded, and the walk stops at the candidate budget.
func (r *refZCache) candidates(addr uint64) []refNode {
	var nodes []refNode
	add := func(pos uint64, way, parent int) {
		for _, nd := range nodes {
			if nd.pos == pos {
				return
			}
		}
		nodes = append(nodes, refNode{pos, way, parent})
	}
	for w := 0; w < r.ways; w++ {
		add(r.slot(addr, w), w, -1)
	}
	for scan := 0; scan < len(nodes); scan++ {
		nd := nodes[scan]
		if !r.lines[nd.pos].valid {
			continue
		}
		for w := 0; w < r.ways; w++ {
			if w == nd.way {
				continue
			}
			if len(nodes) >= r.cand {
				return nodes
			}
			add(r.slot(r.lines[nd.pos].addr, w), w, scan)
		}
	}
	return nodes
}

// victim picks the node to free, first match winning every tie.
func (r *refZCache) victim(nodes []refNode, inserting PartitionID) (int, bool) {
	for i, nd := range nodes {
		if !r.lines[nd.pos].valid {
			return i, false
		}
	}
	if r.mode == ModeVantage {
		best := -1
		var bestOver, bestUse uint64
		for i, nd := range nodes {
			l := r.lines[nd.pos]
			o := r.over(l.part, inserting)
			if o == 0 {
				continue
			}
			if best < 0 || o > bestOver || (o == bestOver && l.use < bestUse) {
				best, bestOver, bestUse = i, o, l.use
			}
		}
		if best >= 0 {
			return best, false
		}
	}
	lru := 0
	for i, nd := range nodes {
		if r.lines[nd.pos].use < r.lines[nodes[lru].pos].use {
			lru = i
		}
	}
	return lru, r.mode == ModeVantage
}

func (r *refZCache) access(addr uint64, part PartitionID, meta uint64) AccessResult {
	if part < 0 || int(part) >= len(r.sizes) {
		part = 0
	}
	r.clock++
	for w := 0; w < r.ways; w++ {
		if l := &r.lines[r.slot(addr, w)]; l.valid && l.addr == addr {
			r.hits++
			res := AccessResult{Hit: true, PrevMeta: l.meta}
			l.use, l.meta = r.clock, meta
			return res
		}
	}
	r.misses++
	nodes := r.candidates(addr)
	v, forced := r.victim(nodes, part)
	var res AccessResult
	if l := r.lines[nodes[v].pos]; l.valid {
		res = AccessResult{Evicted: true, EvictedPartition: l.part, ForcedEviction: forced}
		r.sizes[l.part]--
		r.evictions++
		if forced {
			r.force++
		}
	}
	for nodes[v].parent >= 0 {
		p := nodes[v].parent
		r.lines[nodes[v].pos] = r.lines[nodes[p].pos]
		v = p
	}
	r.lines[nodes[v].pos] = refLine{valid: true, addr: addr, meta: meta, use: r.clock, part: part}
	r.sizes[part]++
	return res
}

// walkPair is one optimised cache and the reference it must track.
type walkPair struct {
	c   *ZCache
	ref *refZCache
}

func (p walkPair) check(t *testing.T, span uint64) {
	t.Helper()
	st := p.c.Stats()
	if st.Hits != p.ref.hits || st.Misses != p.ref.misses || st.Evictions != p.ref.evictions || st.ForcedEvictions != p.ref.force {
		t.Fatalf("stats %+v, reference hits=%d misses=%d evictions=%d forced=%d",
			st, p.ref.hits, p.ref.misses, p.ref.evictions, p.ref.force)
	}
	for q := range p.ref.sizes {
		if got := p.c.PartitionSize(PartitionID(q)); got != p.ref.sizes[q] {
			t.Fatalf("partition %d size %d, reference %d", q, got, p.ref.sizes[q])
		}
	}
	for a := uint64(0); a < span; a++ {
		if got, want := p.c.Contains(a), p.ref.contains(a); got != want {
			t.Fatalf("Contains(%d) = %v, reference %v", a, got, want)
		}
	}
}

// TestWalkMatchesReference drives the optimised zcache and the reference with
// the same random stream — accesses from valid and out-of-range partitions,
// retargeting, Seal/Fork (both sides keep running) and Reset — and requires
// every AccessResult, the statistics, the partition sizes and the final
// contents to agree. Over a million accesses across the grid (each step drives
// up to three live pairs); a tenth with -short.
func TestWalkMatchesReference(t *testing.T) {
	setsPerWay := []uint64{13, 97, 384} // none a power of two
	cfg := 0
	for _, mode := range []ReplacementMode{ModeVantage, ModeLRU} {
		for _, ways := range []int{2, 4, 8} {
			for _, cand := range []int{ways, 16, 52, 300} {
				for _, parts := range []int{1, 6, 64} {
					spw := setsPerWay[cfg%len(setsPerWay)]
					seed := int64(cfg + 1)
					cfg++
					name := fmt.Sprintf("%v/w%d/c%d/p%d/s%d", mode, ways, cand, parts, spw)
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						runWalkDifferential(t, mode, ways, cand, parts, spw, seed)
					})
				}
			}
		}
	}
}

func runWalkDifferential(t *testing.T, mode ReplacementMode, ways, cand, parts int, spw uint64, seed int64) {
	lines := spw * uint64(ways)
	c, err := NewZCache(lines, ways, cand, mode, parts)
	if err != nil {
		t.Fatal(err)
	}
	// The reference's dedup is quadratic in the candidate count, so the wide
	// walks get fewer accesses.
	steps := 16000
	switch {
	case cand > 100:
		steps = 2400
	case cand > 16:
		steps = 12000
	}
	if testing.Short() {
		steps /= 10
	}
	rng := rand.New(rand.NewSource(seed))
	span := 3 * lines
	pairs := []walkPair{{c, newRefZCache(lines, ways, cand, mode, parts)}}
	for step := 0; step < steps; step++ {
		switch op := rng.Intn(1000); {
		case op < 8:
			q := PartitionID(rng.Intn(parts))
			target := uint64(rng.Int63n(int64(2*lines/uint64(parts) + 2)))
			for _, p := range pairs {
				p.c.SetPartitionTarget(q, target)
				p.ref.targets[q] = target
			}
		case op < 11:
			// Seal one pair and keep both the parent and a fork running.
			p := pairs[rng.Intn(len(pairs))]
			fork := walkPair{p.c.Seal().Fork().(*ZCache), p.ref.clone()}
			if len(pairs) < 3 {
				pairs = append(pairs, fork)
			} else {
				pairs[rng.Intn(len(pairs))] = fork
			}
		case op < 12:
			p := pairs[rng.Intn(len(pairs))]
			p.check(t, span)
			p.c.Reset()
			p.ref.reset()
		default:
			addr := uint64(rng.Int63n(int64(span)))
			part := PartitionID(rng.Intn(parts+1) - rng.Intn(2)) // sometimes -1 or parts
			meta := rng.Uint64()
			for i, p := range pairs {
				got, want := p.c.Access(addr, part, meta), p.ref.access(addr, part, meta)
				if got != want {
					t.Fatalf("step %d pair %d: Access(%d, %d) = %+v, reference %+v", step, i, addr, part, got, want)
				}
			}
		}
	}
	for _, p := range pairs {
		p.check(t, span)
	}
}

// TestForkWalkIgnoresParentStamps pins the lifetime of the walk generation.
// Stamps live in the slab, so a sealed image carries every stamp the parent's
// walks left behind, and a fork that restarted its generation count would
// mistake the stamps of the parent's first walks for "already a candidate" in
// its own first walks. That only shows while those early stamps are still in
// place, so the arrays here are small and sealed a few walks after they fill:
// parent and fork must both keep choosing exactly the victims of a twin that
// was never sealed, across a second seal and a Reset as well.
func TestForkWalkIgnoresParentStamps(t *testing.T) {
	const lines, span = 64, 400
	drive := func(rng *rand.Rand, accesses int, caches ...*ZCache) {
		t.Helper()
		for i := 0; i < accesses; i++ {
			addr, part, meta := uint64(rng.Intn(span)), PartitionID(rng.Intn(2)), rng.Uint64()
			want := caches[0].Access(addr, part, meta)
			for j, c := range caches[1:] {
				if got := c.Access(addr, part, meta); got != want {
					t.Fatalf("access %d: cache %d = %+v, unsealed twin %+v", i, j+1, got, want)
				}
			}
		}
		for a := uint64(0); a < span; a++ {
			for j, c := range caches[1:] {
				if c.Contains(a) != caches[0].Contains(a) {
					t.Fatalf("cache %d disagrees with the unsealed twin on Contains(%d)", j+1, a)
				}
			}
		}
	}
	for seed := int64(0); seed < 64; seed++ {
		rng := rand.New(rand.NewSource(seed))
		twin, _ := NewZCache(lines, 4, 16, ModeVantage, 2)
		parent, _ := NewZCache(lines, 4, 16, ModeVantage, 2)
		for _, c := range []*ZCache{twin, parent} {
			c.SetPartitionTarget(0, lines/3)
			c.SetPartitionTarget(1, 2*lines/3)
		}
		drive(rng, lines+int(seed), twin, parent)
		fork := parent.Seal().Fork().(*ZCache)
		drive(rng, 200, twin, parent, fork)
		grandchild := fork.Seal().Fork().(*ZCache)
		drive(rng, 200, twin, parent, fork, grandchild)

		for _, c := range []*ZCache{twin, grandchild} {
			c.Reset()
			c.SetPartitionTarget(0, lines/2)
		}
		drive(rng, 200, twin, grandchild)
	}
}

// TestSlotsDoNotStraddleHostLines checks what the slot layout relies on: the
// slab starts on a 32-byte boundary, so a 32-byte slot sits inside one
// 64-byte host cache line — for fresh, sealed and forked slabs alike.
func TestSlotsDoNotStraddleHostLines(t *testing.T) {
	if unsafe.Sizeof(uint64(0))*slotWords != 32 {
		t.Fatalf("a slot is %d bytes, want 32", unsafe.Sizeof(uint64(0))*slotWords)
	}
	for _, lines := range []uint64{4, 12, 68, 388, 1024, 6144, 16384} {
		c, err := NewZCache(lines, 4, 4, ModeLRU, 1)
		if err != nil {
			t.Fatal(err)
		}
		fork := c.Seal().Fork().(*ZCache)
		for name, z := range map[string]*ZCache{"sealed parent": c, "fork": fork} {
			if addr := uintptr(unsafe.Pointer(&z.words[0])); addr%32 != 0 {
				t.Errorf("%d lines, %s: slab base %#x is not 32-byte aligned", lines, name, addr)
			}
		}
	}
}

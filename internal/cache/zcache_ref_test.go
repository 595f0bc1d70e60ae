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
// retargeting and Reset — and requires every AccessResult, the statistics,
// the partition sizes and the final contents to agree. Reset zeroes the slab,
// stamps included, while the walk generation keeps counting, so the accesses
// after it also pin the stamps' lifetime. About 830,000 accesses across the
// grid; a tenth with -short.
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
	p := walkPair{c, newRefZCache(lines, ways, cand, mode, parts)}
	for step := 0; step < steps; step++ {
		switch op := rng.Intn(1000); {
		case op < 8:
			q := PartitionID(rng.Intn(parts))
			target := uint64(rng.Int63n(int64(2*lines/uint64(parts) + 2)))
			p.c.SetPartitionTarget(q, target)
			p.ref.targets[q] = target
		case op < 9:
			p.check(t, span)
			p.c.Reset()
			p.ref.reset()
		default:
			addr := uint64(rng.Int63n(int64(span)))
			part := PartitionID(rng.Intn(parts+1) - rng.Intn(2)) // sometimes -1 or parts
			meta := rng.Uint64()
			got, want := p.c.Access(addr, part, meta), p.ref.access(addr, part, meta)
			if got != want {
				t.Fatalf("step %d: Access(%d, %d) = %+v, reference %+v", step, addr, part, got, want)
			}
		}
	}
	p.check(t, span)
}

// TestSlotsDoNotStraddleHostLines checks what the slot layout relies on: the
// slab starts on a 32-byte boundary, so a 32-byte slot sits inside one
// 64-byte host cache line.
func TestSlotsDoNotStraddleHostLines(t *testing.T) {
	if unsafe.Sizeof(zslot{}) != 32 {
		t.Fatalf("a slot is %d bytes, want 32", unsafe.Sizeof(zslot{}))
	}
	for _, lines := range []uint64{4, 12, 68, 388, 1024, 6144, 16384} {
		c, err := NewZCache(lines, 4, 4, ModeLRU, 1)
		if err != nil {
			t.Fatal(err)
		}
		if addr := uintptr(unsafe.Pointer(&c.slots[0])); addr%32 != 0 {
			t.Errorf("%d lines: slab base %#x is not 32-byte aligned", lines, addr)
		}
	}
}

// FuzzWalkMatchesReference runs runWalkDifferential on fuzzed shapes: mode,
// ways ∈ {2, 4, 8}, candidate budget, partition count, sets per way and the
// seed of the access stream.
func FuzzWalkMatchesReference(f *testing.F) {
	f.Add(uint8(0), uint8(1), uint16(48), uint8(5), uint16(97), int64(1))
	f.Add(uint8(1), uint8(0), uint16(0), uint8(0), uint16(13), int64(2))
	f.Add(uint8(0), uint8(2), uint16(300), uint8(63), uint16(384), int64(3))
	f.Fuzz(func(t *testing.T, mode, waySel uint8, cand uint16, parts uint8, spw uint16, seed int64) {
		ways := []int{2, 4, 8}[waySel%3]
		m := ModeVantage
		if mode%2 == 1 {
			m = ModeLRU
		}
		runWalkDifferential(t, m, ways, ways+int(cand%300), 1+int(parts%64), 1+uint64(spw%400), seed)
	})
}

// TestWalkAtLineCap drives a cache of zMaxLines-2 lines (the largest
// multiple of 4 under the cap) against the reference through both extremes
// of the 16-bit excess field of the victim key. Partition 0, target 0, first
// holds every line, so the miss after that scores it at excess lines+1; then
// partition 1 misses until both partitions are tens of thousands of lines
// over quota and the walk keeps choosing between two large excesses.
func TestWalkAtLineCap(t *testing.T) {
	const lines, ways, cand = zMaxLines - 2, 4, 52
	c, err := NewZCache(lines, ways, cand, ModeVantage, 2)
	if err != nil {
		t.Fatal(err)
	}
	p := walkPair{c, newRefZCache(lines, ways, cand, ModeVantage, 2)}
	access := func(addr uint64, part PartitionID) {
		t.Helper()
		if got, want := p.c.Access(addr, part, addr), p.ref.access(addr, part, addr); got != want {
			t.Fatalf("Access(%d, %d) = %+v, reference %+v", addr, part, got, want)
		}
	}
	// Fill: touch an address only while one of its own slots is empty, so
	// each access fills a slot without evicting.
	addr := uint64(0)
	for ; p.c.PartitionSize(0) < lines; addr++ {
		for w := 0; w < ways; w++ {
			if p.c.slots[p.c.slotIndex(baseHash(addr), w)].info&zValidBit == 0 {
				access(addr, 0)
				break
			}
		}
	}
	access(addr, 0)
	if got := c.overTab[0] >> zExcessShift; got != lines+1 {
		t.Fatalf("excess of the full partition scored as %d, want %d", got, lines+1)
	}
	steps := 40_000
	if testing.Short() {
		steps = 4_000
	}
	for i := 0; i < steps; i++ {
		addr++
		access(addr, 1)
	}
	if s0, s1 := c.PartitionSize(0), c.PartitionSize(1); s0 < 20_000 || s1 < uint64(min(steps, 20_000)) {
		t.Fatalf("partition sizes %d and %d, want both far over their zero targets", s0, s1)
	}
	p.check(t, addr+1)
}

package cacheserve

import (
	"fmt"
	"math/bits"
)

// checkInvariants walks every shard under its lock and verifies the
// structural invariants the concurrency suite relies on after quiesce (see
// tenantShard.check).
func (c *Cache) checkInvariants() error {
	for si := range c.shards {
		sh := &c.shards[si]
		sh.mu.Lock()
		var err error
		for t := range sh.tenants {
			if err = sh.tenants[t].check(uint64(si), c.mask); err != nil {
				err = fmt.Errorf("shard %d tenant %d: %w", si, t, err)
				break
			}
		}
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// check verifies one tenant shard: the LRU ring through the sentinel is
// doubly linked and holds exactly the indexed slots, each under a hash that
// routes to this shard; every other slot is on the free list and cleared;
// the index is consistent with the slab (see checkIndex); the byte count is
// the sum of the live entries' charges; and usage is within quota.
func (ts *tenantShard) check(shard, mask uint64) error {
	live := make(map[int32]bool, ts.index.n)
	var bytes int64
	prev := int32(0)
	for i := ts.slots[0].next; i != 0; i = ts.slots[i].next {
		e := &ts.slots[i]
		if e.prev != prev {
			return fmt.Errorf("broken back-link at %q", e.key)
		}
		if live[i] {
			return fmt.Errorf("LRU list cycles at %q", e.key)
		}
		if ts.index.get(e.hash, ts.slots) != i {
			return fmt.Errorf("list entry %q not indexed by its hash", e.key)
		}
		if e.hash&mask != shard {
			return fmt.Errorf("entry %q hashes to shard %d", e.key, e.hash&mask)
		}
		live[i] = true
		bytes += e.size()
		prev = i
	}
	if ts.slots[0].prev != prev {
		return fmt.Errorf("tail mismatch")
	}
	if len(live) != ts.index.n {
		return fmt.Errorf("list has %d entries, index %d", len(live), ts.index.n)
	}
	if err := ts.checkIndex(live); err != nil {
		return err
	}
	free := 0
	for i := ts.free; i != 0; i = ts.slots[i].next {
		if live[i] || free == len(ts.slots) {
			return fmt.Errorf("free list reaches live slot %d or cycles", i)
		}
		if e := &ts.slots[i]; e.key != "" || e.value != nil || e.expireAt != 0 {
			return fmt.Errorf("free slot %d still holds %q", i, e.key)
		}
		free++
	}
	if 1+len(live)+free != len(ts.slots) {
		return fmt.Errorf("%d slots but %d live, %d free and the sentinel", len(ts.slots), len(live), free)
	}
	if bytes != ts.bytes {
		return fmt.Errorf("accounted %d bytes, actual %d", ts.bytes, bytes)
	}
	if ts.bytes > ts.quota {
		return fmt.Errorf("usage %d over quota %d", ts.bytes, ts.quota)
	}
	return nil
}

// checkIndex verifies the slot index against the live slots: it holds one
// word per live slot, n counts them and the load is at most 3/4; each word
// names a live slot whose stored hash has the word's fingerprint; and each
// word is reachable from its home without crossing an empty word. (Callers
// look every live slot up, so equal counts make the words a bijection.)
func (ts *tenantShard) checkIndex(live map[int32]bool) error {
	x := &ts.index
	mask := uint64(len(x.words) - 1)
	if len(x.words) < minIndexWords || len(x.words)&int(mask) != 0 || 64-x.shift != uint(bits.TrailingZeros(uint(len(x.words)))) {
		return fmt.Errorf("index of %d words has shift %d", len(x.words), x.shift)
	}
	words := 0
	for p, w := range x.words {
		if w == 0 {
			continue
		}
		words++
		slot := int32(w & slotBits)
		if !live[slot] {
			return fmt.Errorf("index word %d names slot %d, which is not live", p, slot)
		}
		if x.tag(ts.slots[slot].hash) != w&^slotBits {
			return fmt.Errorf("index word %d has a fingerprint slot %d's hash does not", p, slot)
		}
		for i := w >> x.shift; i != uint64(p); i = (i + 1) & mask {
			if x.words[i] == 0 {
				return fmt.Errorf("index word %d is cut off from its home %d by the empty word %d", p, w>>x.shift, i)
			}
		}
	}
	if words != len(live) || x.n != len(live) {
		return fmt.Errorf("index has %d words and n %d for %d live slots", words, x.n, len(live))
	}
	if 4*x.n > 3*len(x.words) {
		return fmt.Errorf("index holds %d words in %d, over 3/4 load", x.n, len(x.words))
	}
	return nil
}

package cacheserve

import "fmt"

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
// the byte count is the sum of the live entries' charges; and usage is
// within quota.
func (ts *tenantShard) check(shard, mask uint64) error {
	live := make(map[int32]bool, len(ts.index))
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
		if j, ok := ts.index[e.hash]; !ok || j != i {
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
	if len(live) != len(ts.index) {
		return fmt.Errorf("list has %d entries, index %d", len(live), len(ts.index))
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

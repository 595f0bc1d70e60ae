package cacheserve

import (
	"container/list"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// refEntry is one key-value pair of the reference model.
type refEntry struct {
	key      string
	value    []byte
	expireAt int64
}

// refPart is the reference model of one (shard, tenant) pair: a map and a
// container/list in LRU order (front = most recent), with the same byte
// charge (EntrySize) and per-shard quota the cache uses.
type refPart struct {
	items        map[string]*list.Element
	lru          list.List
	bytes, quota int64
}

func (p *refPart) remove(el *list.Element) *refEntry {
	e := p.lru.Remove(el).(*refEntry)
	delete(p.items, e.key)
	p.bytes -= EntrySize(e.key, e.value)
	return e
}

// refCache is the trivially correct single-goroutine model
// TestMatchesReferenceLRU checks the cache against. It routes keys to shards
// with the cache's own hash and mask, so each part sees exactly the keys its
// counterpart shard does.
type refCache struct {
	parts      [][]refPart // [shard][tenant]
	mask       uint64
	defaultTTL time.Duration
	stats      []TenantStats
	events     []Eviction
}

func newRefCache(c *Cache) *refCache {
	r := &refCache{
		parts:      make([][]refPart, c.NumShards()),
		mask:       uint64(c.NumShards() - 1),
		defaultTTL: c.cfg.DefaultTTL,
		stats:      make([]TenantStats, c.NumTenants()),
	}
	for si := range r.parts {
		r.parts[si] = make([]refPart, c.NumTenants())
		for t := range r.parts[si] {
			r.parts[si][t].items = make(map[string]*list.Element)
		}
	}
	for t := range r.stats {
		r.stats[t].Name = c.Tenant(t).Name
	}
	equal := make([]int64, c.NumTenants())
	for t := range equal {
		equal[t] = c.cfg.CapacityBytes / int64(len(equal))
	}
	r.setQuotas(equal)
	return r
}

func (r *refCache) part(tenant int, key string) *refPart {
	return &r.parts[hashKey(tenant, key)&r.mask][tenant]
}

func (r *refCache) evict(tenant int, p *refPart, el *list.Element, reason Reason) {
	e := p.remove(el)
	if reason == ReasonCapacity {
		r.stats[tenant].CapacityEvictions++
	} else {
		r.stats[tenant].Expirations++
	}
	r.events = append(r.events, Eviction{Tenant: tenant, Key: e.key, Value: e.value, Size: EntrySize(e.key, e.value), Reason: reason})
}

func (r *refCache) shrink(tenant int, p *refPart) {
	for p.bytes > p.quota {
		r.evict(tenant, p, p.lru.Back(), ReasonCapacity)
	}
}

func (r *refCache) set(tenant int, key string, value []byte, ttl time.Duration, now int64) error {
	p := r.part(tenant, key)
	size := EntrySize(key, value)
	if size > p.quota {
		return ErrTooLarge
	}
	if ttl == 0 {
		ttl = r.defaultTTL
	}
	var expireAt int64
	if ttl > 0 {
		expireAt = now + int64(ttl)
	}
	r.stats[tenant].Sets++
	if el, ok := p.items[key]; ok {
		e := el.Value.(*refEntry)
		p.bytes += size - EntrySize(e.key, e.value)
		e.value, e.expireAt = value, expireAt
		p.lru.MoveToFront(el)
	} else {
		p.items[key] = p.lru.PushFront(&refEntry{key: key, value: value, expireAt: expireAt})
		p.bytes += size
	}
	r.shrink(tenant, p)
	return nil
}

func (r *refCache) get(tenant int, key string, now int64) ([]byte, bool) {
	p := r.part(tenant, key)
	el, ok := p.items[key]
	if !ok {
		r.stats[tenant].Misses++
		return nil, false
	}
	if e := el.Value.(*refEntry); e.expireAt > 0 && now >= e.expireAt {
		r.evict(tenant, p, el, ReasonExpired)
		r.stats[tenant].Misses++
		return nil, false
	}
	r.stats[tenant].Hits++
	p.lru.MoveToFront(el)
	return el.Value.(*refEntry).value, true
}

func (r *refCache) delete(tenant int, key string) bool {
	p := r.part(tenant, key)
	el, ok := p.items[key]
	if ok {
		p.remove(el)
		r.stats[tenant].Deletes++
	}
	return ok
}

func (r *refCache) setQuotas(quotas []int64) {
	n := int64(len(r.parts))
	for si := range r.parts {
		for t := range r.parts[si] {
			p := &r.parts[si][t]
			p.quota = quotas[t] / n
			if int64(si) < quotas[t]%n {
				p.quota++
			}
			r.shrink(t, p)
		}
	}
}

func (r *refCache) sweep(now int64) int {
	removed := 0
	for si := range r.parts {
		for t := range r.parts[si] {
			p := &r.parts[si][t]
			for el := p.lru.Front(); el != nil; {
				next := el.Next()
				if e := el.Value.(*refEntry); e.expireAt > 0 && now >= e.expireAt {
					r.evict(t, p, el, ReasonExpired)
					removed++
				}
				el = next
			}
		}
	}
	return removed
}

// snapshot fills in the usage fields Stats reports, from the parts.
func (r *refCache) snapshot() ([]TenantStats, int) {
	out := slices.Clone(r.stats)
	n := 0
	for si := range r.parts {
		for t := range r.parts[si] {
			p := &r.parts[si][t]
			out[t].Keys += len(p.items)
			out[t].BytesUsed += p.bytes
			out[t].QuotaBytes += p.quota
			n += len(p.items)
		}
	}
	return out, n
}

func sameEviction(a, b Eviction) bool {
	return a.Tenant == b.Tenant && a.Key == b.Key && a.Size == b.Size &&
		a.Reason == b.Reason && string(a.Value) == string(b.Value)
}

func byTenantKey(a, b Eviction) int {
	if a.Tenant != b.Tenant {
		return a.Tenant - b.Tenant
	}
	return strings.Compare(a.Key, b.Key)
}

// TestMatchesReferenceLRU is a differential test: seeded random operations
// from one goroutine (sets on both sides of the per-shard quota with default,
// short and pinned TTLs; gets; deletes; quota shrinks and grows; clock
// advances; sweeps) run against the cache and against refCache, and every
// observable result must agree — each Get's value, each Set's and Delete's
// outcome, the capacity-eviction callbacks in order, each sweep's expiries as
// a multiset, Stats and Len. A second half fills the cache from several
// goroutines at once and reads every key back.
func TestMatchesReferenceLRU(t *testing.T) {
	t.Run("single goroutine", func(t *testing.T) {
		ops := 1_000_000
		if testing.Short() {
			ops = 100_000
		}
		clk := &fakeClock{now: 1}
		var got []Eviction
		c := mustNew(t, Config{
			CapacityBytes: 96 << 10,
			Shards:        4,
			DefaultTTL:    time.Second,
			Clock:         clk.Now,
			OnEvict:       func(ev Eviction) { got = append(got, ev) },
			Tenants:       []TenantConfig{{Name: "a"}, {Name: "b"}, {Name: "c"}},
		})
		ref := newRefCache(c)
		nt := c.NumTenants()
		rng := rand.New(rand.NewSource(27))
		keys := make([][]string, nt)
		for tenant := range keys {
			for k := 0; k < 200; k++ {
				keys[tenant] = append(keys[tenant], fmt.Sprintf("%d-%d", tenant, k))
			}
		}
		// Values are windows of one immutable buffer, so the model may keep
		// the caller's slice while the cache keeps its own copy.
		pool := make([]byte, 16<<10)
		rng.Read(pool)
		perShard := c.cfg.CapacityBytes / int64(nt*c.NumShards())

		for i := 0; i < ops; i++ {
			tenant := rng.Intn(nt)
			key := keys[tenant][rng.Intn(len(keys[tenant]))]
			from := len(got)
			ref.events = ref.events[:0]
			sorted := false
			switch op := rng.Intn(1000); {
			case op < 350:
				size := rng.Intn(300)
				if rng.Intn(200) == 0 {
					// Near, at or beyond the equal-split per-shard quota.
					size = int(perShard) - 64 - len(key) + rng.Intn(128) - 64
				}
				off := rng.Intn(len(pool) - size)
				value := pool[off : off+size]
				var ttl time.Duration
				switch rng.Intn(4) {
				case 0:
					ttl = time.Duration(1+rng.Intn(50)) * time.Millisecond
				case 1:
					ttl = -1
				}
				if gotErr, want := c.Set(tenant, key, value, ttl), ref.set(tenant, key, value, ttl, clk.now); gotErr != want {
					t.Fatalf("op %d: Set(%d, %q, %d bytes) = %v, reference %v", i, tenant, key, size, gotErr, want)
				}
			case op < 800:
				v, ok := c.Get(tenant, key)
				wv, wok := ref.get(tenant, key, clk.now)
				if ok != wok || string(v) != string(wv) {
					t.Fatalf("op %d: Get(%d, %q) = %d bytes, %v; reference %d bytes, %v", i, tenant, key, len(v), ok, len(wv), wok)
				}
			case op < 880:
				if ok, want := c.Delete(tenant, key), ref.delete(tenant, key); ok != want {
					t.Fatalf("op %d: Delete(%d, %q) = %v, reference %v", i, tenant, key, ok, want)
				}
			case op < 993:
				clk.Advance(time.Duration(rng.Intn(5)) * time.Millisecond)
			case op < 998:
				// Weights 1-4 plus up to 2 of slack: each tenant's quota
				// moves up or down by up to 4x, and one split in ten starves
				// a tenant outright.
				quotas := make([]int64, nt)
				weights := make([]int64, nt)
				sum := rng.Int63n(3)
				for q := range weights {
					weights[q] = 1 + rng.Int63n(4)
					sum += weights[q]
				}
				for q := range quotas {
					quotas[q] = c.cfg.CapacityBytes * weights[q] / sum
				}
				if rng.Intn(10) == 0 {
					quotas[rng.Intn(nt)] = 0
				}
				if err := c.SetQuotas(quotas); err != nil {
					t.Fatalf("op %d: SetQuotas(%v): %v", i, quotas, err)
				}
				ref.setQuotas(quotas)
			default:
				if n, want := c.Sweep(), ref.sweep(clk.now); n != want {
					t.Fatalf("op %d: Sweep removed %d, reference %d", i, n, want)
				}
				sorted = true
			}

			gotEv, wantEv := got[from:], ref.events
			if sorted {
				slices.SortFunc(gotEv, byTenantKey)
				slices.SortFunc(wantEv, byTenantKey)
			}
			if !slices.EqualFunc(gotEv, wantEv, sameEviction) {
				t.Fatalf("op %d: evictions %v, reference %v", i, gotEv, wantEv)
			}
			got = got[:from]

			if i%100 == 0 {
				want, wantLen := ref.snapshot()
				if st := c.Stats(); !slices.Equal(st, want) {
					t.Fatalf("op %d: Stats %+v, reference %+v", i, st, want)
				}
				if n := c.Len(); n != wantLen {
					t.Fatalf("op %d: Len %d, reference %d", i, n, wantLen)
				}
			}
			if i%10_000 == 0 {
				if err := c.checkInvariants(); err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
			}
		}
		if err := c.checkInvariants(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("set then get from many goroutines", func(t *testing.T) {
		const workers = 4
		perWorker := 20_000
		if testing.Short() {
			perWorker = 4_000
		}
		// Sized so no shard's quota is ever reached: nothing may be evicted.
		c := mustNew(t, Config{
			CapacityBytes: 64 << 20,
			Shards:        8,
			Tenants:       []TenantConfig{{Name: "a"}, {Name: "b"}},
		})
		value := func(w, k int) []byte { return []byte(fmt.Sprintf("value-%d-%d", w, k)) }
		var wg sync.WaitGroup
		errs := make(chan error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				tenant := w % c.NumTenants()
				for k := 0; k < perWorker; k++ {
					if err := c.Set(tenant, fmt.Sprintf("w%d-%d", w, k), value(w, k), 0); err != nil {
						errs <- err
						return
					}
				}
				for k := 0; k < perWorker; k++ {
					key := fmt.Sprintf("w%d-%d", w, k)
					if v, ok := c.Get(tenant, key); !ok || string(v) != string(value(w, k)) {
						errs <- fmt.Errorf("Get(%d, %q) = %q, %v after Set", tenant, key, v, ok)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
		if n := c.Len(); n != workers*perWorker {
			t.Fatalf("Len = %d, want %d", n, workers*perWorker)
		}
		for tenant, st := range c.Stats() {
			want := uint64(workers / c.NumTenants() * perWorker)
			if st.Sets != want || st.Hits != want || st.Misses != 0 || st.CapacityEvictions != 0 {
				t.Errorf("tenant %d stats %+v, want %d sets and hits, no misses or evictions", tenant, st, want)
			}
		}
		if err := c.checkInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

// Package cacheserve is the live plant: a sharded, concurrently-accessed
// in-memory key-value cache whose per-tenant capacity is governed online by
// the same UMON + Ubik/UCP machinery the simulator drives. Where
// internal/sim models an LLC shared by latency-critical and batch
// applications, cacheserve *is* a cache shared by latency-critical and batch
// tenants: every tenant's quota is a live allocation decided by the pure
// policy layer (internal/policy, internal/core) from miss curves measured on
// the real access stream (see Governor in governor.go and DESIGN.md §11).
//
// Layout: the key space is split over a power-of-two number of shards by key
// hash. Each shard holds, per tenant and under a single mutex, a slab of
// entry slots linked into an LRU list by int32 slot indices and a seeded
// open-addressing index from the 64-bit key hash to a slot (slotIndex), so
// every operation takes exactly one lock and hashes its key once, and
// per-tenant eviction needs no cross-shard coordination: a tenant's byte
// quota is divided across shards, and a Set that pushes the tenant's shard
// usage over its shard quota evicts from that tenant's LRU tail in place. Two
// keys of one tenant shard whose hashes collide cannot both be cached: the
// later Set displaces the earlier entry as a capacity eviction.
//
// Expiry is lazy (a Get that finds an expired entry removes it) plus an
// optional background sweeper. Capacity evictions and expiries are reported
// through an eviction callback, invoked after the shard lock is released, in
// LRU order within a capacity-eviction batch and in slab order within a sweep.
package cacheserve

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/monitor"
)

// Reason says why an entry left the cache.
type Reason uint8

const (
	// ReasonCapacity marks an eviction forced by the tenant's byte quota.
	ReasonCapacity Reason = iota
	// ReasonExpired marks a TTL expiry (lazy or swept).
	ReasonExpired
)

// String implements fmt.Stringer.
func (r Reason) String() string {
	switch r {
	case ReasonCapacity:
		return "capacity"
	case ReasonExpired:
		return "expired"
	default:
		return fmt.Sprintf("Reason(%d)", int(r))
	}
}

// Eviction describes one entry removed by the cache itself (quota pressure
// or TTL); explicit Deletes are not reported. Value aliases the stored
// buffer and must be treated as read-only; like Get results it is a stable
// snapshot (stored buffers are never rewritten in place).
type Eviction struct {
	Tenant int
	Key    string
	Value  []byte
	Size   int64
	Reason Reason
}

// TenantConfig declares one tenant of the cache.
type TenantConfig struct {
	// Name labels the tenant in stats and reports.
	Name string
	// LatencyCritical marks the tenant as latency-critical to the governing
	// policy (Ubik reserves its target allocation the way it protects LC
	// applications in the simulator). Batch tenants compete on utility.
	LatencyCritical bool
	// TargetBytes is the latency-critical reserve target (required for LC
	// tenants; ignored by pure utility policies for batch tenants).
	TargetBytes int64
}

// Config configures a Cache.
type Config struct {
	// CapacityBytes is the total byte budget across all tenants (required).
	CapacityBytes int64
	// Shards is the shard count, rounded up to a power of two; 0 picks
	// 4×GOMAXPROCS rounded up.
	Shards int
	// DefaultTTL applies to Set calls passing ttl 0; DefaultTTL 0 means such
	// entries never expire.
	DefaultTTL time.Duration
	// SweepInterval enables the background expiry sweeper; 0 = lazy-only.
	SweepInterval time.Duration
	// SampleRate is the fraction of accesses fed into the per-tenant UMONs
	// (0 disables sampling and therefore governing; 1 feeds everything).
	SampleRate float64
	// UMONSampleSets is the number of sampled sets in each per-tenant
	// monitor (0 = 256); every monitor has umonWays ways.
	UMONSampleSets int
	// Tenants declares the tenants (at least one).
	Tenants []TenantConfig
	// Metrics, when set, registers the cache's metric families (see
	// metrics.go and DESIGN.md §12) in the registry and keeps them current:
	// hot-path per-shard op counters, plus per-tenant families synced from
	// the authoritative counters at every scrape. Instrumented Get/Set stay
	// zero-allocation.
	Metrics *metrics.Registry
	// OnEvict, when set, observes capacity evictions and expiries. It is
	// called after the shard lock is released; it must not call back into
	// the cache for the same keys synchronously expecting them present.
	OnEvict func(Eviction)
	// Clock returns the current time in nanoseconds; nil = time.Now-based.
	// Injected by tests for deterministic expiry.
	Clock func() int64
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.CapacityBytes <= 0 {
		return fmt.Errorf("cacheserve: CapacityBytes must be > 0, got %d", c.CapacityBytes)
	}
	if c.Shards < 0 {
		return fmt.Errorf("cacheserve: Shards must be >= 0, got %d", c.Shards)
	}
	if c.SampleRate < 0 || c.SampleRate > 1 {
		return fmt.Errorf("cacheserve: SampleRate must be in [0,1], got %v", c.SampleRate)
	}
	if len(c.Tenants) == 0 {
		return fmt.Errorf("cacheserve: at least one tenant is required")
	}
	seen := make(map[string]bool, len(c.Tenants))
	for i, t := range c.Tenants {
		if t.Name == "" {
			return fmt.Errorf("cacheserve: tenant %d has no name", i)
		}
		if seen[t.Name] {
			return fmt.Errorf("cacheserve: duplicate tenant name %q", t.Name)
		}
		seen[t.Name] = true
		if t.LatencyCritical && t.TargetBytes <= 0 {
			return fmt.Errorf("cacheserve: latency-critical tenant %q needs TargetBytes > 0", t.Name)
		}
		if t.TargetBytes < 0 {
			return fmt.Errorf("cacheserve: tenant %q has negative TargetBytes", t.Name)
		}
	}
	return nil
}

// lineBytes is the accounting granularity that maps bytes to the policy
// layer's "lines": quota bytes = allocation lines × lineBytes.
const lineBytes = 64

// umonWays is the associativity of each per-tenant monitor's shadow tags.
const umonWays = 16

// entryOverhead approximates the bookkeeping bytes charged per entry on top
// of key and value (its slab slot and index share).
const entryOverhead = 64

// EntrySize returns the bytes an entry with the given key and value is
// charged against its tenant's quota.
func EntrySize(key string, value []byte) int64 {
	return int64(len(key)) + int64(len(value)) + entryOverhead
}

// ErrTooLarge is returned by Set when the entry alone exceeds the tenant's
// per-shard quota and could therefore never be admitted.
var ErrTooLarge = fmt.Errorf("cacheserve: entry exceeds the tenant's per-shard quota")

// entry is one slot of a tenant shard's slab. Live slots form the tenant's
// per-shard LRU list through prev/next slot indices, closed into a ring by
// the sentinel slot 0 (slots[0].next = most recent, slots[0].prev = least
// recent). Free slots are threaded through next and, like the sentinel,
// carry no key or value and expireAt 0.
type entry struct {
	key        string
	value      []byte
	hash       uint64 // the index key, hashKey(tenant, key)
	expireAt   int64  // unix nanoseconds; 0 = never
	prev, next int32
}

func (e *entry) size() int64 { return EntrySize(e.key, e.value) }

// tenantShard is one tenant's slice of one shard, all guarded by the shard
// mutex. The index holds no pointers, so the GC never scans it.
type tenantShard struct {
	slots []entry
	index slotIndex
	free  int32 // first free slot; 0 = none
	bytes int64
	quota int64

	hits, misses, sets, deletes uint64
	capEvictions, expirations   uint64
	// Sampling state (see sample): untilSample counts down the ops left in
	// the current stride block, pick is the countdown value at which the
	// block's sample is taken, pending holds that op's key hash until the
	// block closes, and rng draws each block's pick.
	untilSample, pick, pending uint64
	rng                        rand.PCG
}

func (ts *tenantShard) unlink(i int32) {
	s := ts.slots
	s[s[i].prev].next = s[i].next
	s[s[i].next].prev = s[i].prev
}

func (ts *tenantShard) pushFront(i int32) {
	s := ts.slots
	s[i].prev, s[i].next = 0, s[0].next
	s[s[0].next].prev = i
	s[0].next = i
}

func (ts *tenantShard) moveFront(i int32) {
	if ts.slots[0].next == i {
		return
	}
	ts.unlink(i)
	ts.pushFront(i)
}

// find returns the slot holding key under hash h, or 0 if there is none.
func (ts *tenantShard) find(h uint64, key string) int32 {
	if i := ts.index.get(h, ts.slots); i != 0 && ts.slots[i].key == key {
		return i
	}
	return 0
}

// insert stores a new entry under hash h at the LRU head, reusing a free
// slot when there is one. h must not be indexed already.
func (ts *tenantShard) insert(h uint64, key string, value []byte, expireAt int64) {
	i := ts.free
	if i == 0 {
		i = int32(len(ts.slots))
		ts.slots = append(ts.slots, entry{})
	} else {
		ts.free = ts.slots[i].next
	}
	ts.slots[i] = entry{key: key, value: value, hash: h, expireAt: expireAt}
	ts.index.put(h, i)
	ts.pushFront(i)
	ts.bytes += ts.slots[i].size()
}

// remove takes slot i out of the index, the list and the byte accounting,
// and frees it.
func (ts *tenantShard) remove(i int32) {
	e := &ts.slots[i]
	ts.index.del(e.hash, i)
	ts.unlink(i)
	ts.bytes -= e.size()
	*e = entry{next: ts.free}
	ts.free = i
}

type shard struct {
	mu      sync.Mutex
	tenants []tenantShard
	// pad keeps adjacent shards off one cache line so uncontended shards do
	// not false-share their mutexes.
	_ [64]byte
}

// Cache is the sharded, tenant-partitioned concurrent cache. All methods are
// safe for concurrent use.
type Cache struct {
	cfg     Config
	shards  []shard
	mask    uint64
	clock   func() int64
	feeds   []*monitor.SampledUMON // nil when SampleRate == 0
	metrics *cacheMetrics          // nil when Config.Metrics is nil

	sweepStop chan struct{}
	sweepDone chan struct{}
	closeOnce sync.Once
}

// New builds a cache and starts its sweeper (when configured).
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nshards := cfg.Shards
	if nshards == 0 {
		nshards = 4 * runtime.GOMAXPROCS(0)
	}
	nshards = nextPow2(nshards)
	c := &Cache{
		cfg:    cfg,
		shards: make([]shard, nshards),
		mask:   uint64(nshards - 1),
		clock:  cfg.Clock,
	}
	if c.clock == nil {
		c.clock = func() int64 { return time.Now().UnixNano() }
	}
	nt := len(cfg.Tenants)
	seed := rand.Uint64() // one index seed per cache, see slotIndex
	for i := range c.shards {
		c.shards[i].tenants = make([]tenantShard, nt)
		for t := range c.shards[i].tenants {
			ts := &c.shards[i].tenants[t]
			ts.slots = make([]entry, 1) // the sentinel
			ts.index = newSlotIndex(seed)
		}
	}
	// Every tenant starts with an equal share; the governor redistributes.
	equal := make([]int64, nt)
	for t := range equal {
		equal[t] = cfg.CapacityBytes / int64(nt)
	}
	if err := c.SetQuotas(equal); err != nil {
		return nil, err
	}
	if cfg.SampleRate > 0 {
		sets := cfg.UMONSampleSets
		if sets == 0 {
			sets = 256
		}
		c.feeds = make([]*monitor.SampledUMON, nt)
		for t := range c.feeds {
			u, err := monitor.NewUMON(c.CapacityLines(), umonWays, sets)
			if err != nil {
				return nil, err
			}
			c.feeds[t], err = monitor.NewSampledUMON(u, cfg.SampleRate)
			if err != nil {
				return nil, err
			}
			for si := range c.shards {
				ts := &c.shards[si].tenants[t]
				ts.rng.Seed(uint64(si), uint64(t))
				ts.untilSample = c.feeds[t].Stride()
				ts.pick = ts.rng.Uint64() % ts.untilSample
			}
		}
	}
	if cfg.Metrics != nil {
		c.metrics = newCacheMetrics(c, cfg.Metrics)
	}
	if cfg.SweepInterval > 0 {
		c.sweepStop = make(chan struct{})
		c.sweepDone = make(chan struct{})
		go c.sweepLoop()
	}
	return c, nil
}

func nextPow2(n int) int {
	if n < 1 {
		n = 1
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// hashKey mixes tenant and key into the 64-bit hash used for shard selection,
// as the slot index key and as the UMON line address (FNV-1a with a
// tenant-salted seed and a final avalanche, so low bits are usable as a shard
// mask).
func hashKey(tenant int, key string) uint64 {
	h := uint64(1469598103934665603) ^ (uint64(tenant+1) * 0x9E3779B97F4A7C15)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 29
	return h
}

// NumShards returns the (power-of-two) shard count.
func (c *Cache) NumShards() int { return len(c.shards) }

// NumTenants returns the tenant count.
func (c *Cache) NumTenants() int { return len(c.cfg.Tenants) }

// Tenant returns the tenant's configuration.
func (c *Cache) Tenant(t int) TenantConfig { return c.cfg.Tenants[t] }

// LineBytes returns the byte-to-line accounting granularity.
func (c *Cache) LineBytes() int64 { return lineBytes }

// CapacityLines returns the total capacity in policy lines.
func (c *Cache) CapacityLines() uint64 {
	return uint64(c.cfg.CapacityBytes / lineBytes)
}

// Feed returns the tenant's sampling UMON feed (nil when SampleRate is 0).
func (c *Cache) Feed(t int) *monitor.SampledUMON {
	if c.feeds == nil {
		return nil
	}
	return c.feeds[t]
}

func (c *Cache) checkTenant(tenant int) error {
	if tenant < 0 || tenant >= len(c.cfg.Tenants) {
		return fmt.Errorf("cacheserve: tenant %d out of range [0,%d)", tenant, len(c.cfg.Tenants))
	}
	return nil
}

// Set stores value under (tenant, key), copying value so later caller
// mutations cannot alias the cache. ttl 0 applies DefaultTTL; a negative ttl
// pins the entry (never expires). Entries displaced by quota pressure (or by
// a hash collision, see the package comment) are reported through OnEvict in
// LRU order.
func (c *Cache) Set(tenant int, key string, value []byte, ttl time.Duration) error {
	if err := c.checkTenant(tenant); err != nil {
		return err
	}
	return c.set(tenant, hashKey(tenant, key), key, value, ttl)
}

// set, get and del are Set, Get and Delete on an already hashed key (tests
// pass a hash of their own to make two keys collide).
func (c *Cache) set(tenant int, h uint64, key string, value []byte, ttl time.Duration) error {
	size := EntrySize(key, value)
	var expireAt int64
	if ttl == 0 {
		ttl = c.cfg.DefaultTTL
	}
	if ttl > 0 {
		expireAt = c.clock() + int64(ttl)
	}

	sh := &c.shards[h&c.mask]
	var evicted []Eviction
	sh.mu.Lock()
	ts := &sh.tenants[tenant]
	if size > ts.quota {
		sh.mu.Unlock()
		return ErrTooLarge
	}
	ts.sets++
	// Only admitted Sets are sampled, so rejected oversized entries do not
	// shape the governed miss curve.
	if c.feeds != nil {
		c.sample(ts, tenant, h)
	}
	// Install a fresh buffer rather than rewriting the old one in place:
	// slices handed out by earlier Gets alias the old buffer and may still be
	// read concurrently with this Set.
	buf := append([]byte(nil), value...)
	if i := ts.index.get(h, ts.slots); i != 0 && ts.slots[i].key == key {
		e := &ts.slots[i]
		ts.bytes += size - e.size()
		e.value, e.expireAt = buf, expireAt
		ts.moveFront(i)
	} else {
		if i != 0 { // another key with the same hash: the collision rule displaces it
			evicted = c.drop(ts, tenant, i, ReasonCapacity, evicted)
		}
		ts.insert(h, key, buf, expireAt)
	}
	evicted = c.shrink(ts, tenant, evicted)
	sh.mu.Unlock()
	if c.metrics != nil {
		c.metrics.opsSet.Inc(int(h & c.mask))
	}
	c.report(evicted)
	return nil
}

// Get returns the value stored under (tenant, key). The returned slice
// aliases the cache's internal buffer and must be treated as read-only, but
// it is a stable snapshot: the cache never rewrites a stored buffer in place
// (an overwrite installs a fresh one), so the slice stays coherent even if
// the key is overwritten or evicted after the call. An expired entry is
// removed (counted as a miss and an expiry) on the way.
func (c *Cache) Get(tenant int, key string) ([]byte, bool) {
	if c.checkTenant(tenant) != nil {
		return nil, false
	}
	return c.get(tenant, hashKey(tenant, key), key)
}

func (c *Cache) get(tenant int, h uint64, key string) ([]byte, bool) {
	if c.metrics != nil {
		c.metrics.opsGet.Inc(int(h & c.mask))
	}
	sh := &c.shards[h&c.mask]
	sh.mu.Lock()
	ts := &sh.tenants[tenant]
	if c.feeds != nil {
		c.sample(ts, tenant, h) // hits, misses and expiries all count
	}
	i := ts.find(h, key)
	if i == 0 {
		ts.misses++
		sh.mu.Unlock()
		return nil, false
	}
	e := &ts.slots[i]
	if e.expireAt > 0 && c.clock() >= e.expireAt {
		expired := c.drop(ts, tenant, i, ReasonExpired, nil)
		ts.misses++
		sh.mu.Unlock()
		c.report(expired)
		return nil, false
	}
	ts.hits++
	ts.moveFront(i)
	v := e.value
	sh.mu.Unlock()
	return v, true
}

// Delete removes (tenant, key) and reports whether it was present. Explicit
// deletes are not passed to OnEvict.
func (c *Cache) Delete(tenant int, key string) bool {
	if c.checkTenant(tenant) != nil {
		return false
	}
	return c.del(tenant, hashKey(tenant, key), key)
}

func (c *Cache) del(tenant int, h uint64, key string) bool {
	if c.metrics != nil {
		c.metrics.opsDelete.Inc(int(h & c.mask))
	}
	sh := &c.shards[h&c.mask]
	sh.mu.Lock()
	ts := &sh.tenants[tenant]
	i := ts.find(h, key)
	if i != 0 {
		ts.remove(i)
		ts.deletes++
	}
	sh.mu.Unlock()
	return i != 0
}

// sample counts one op of the tenant shard toward the sampling stride. The
// shard's ops fall into blocks of Stride() consecutive ops; each block's
// sample is the op at a position drawn uniformly from the block by the
// shard's own generator, and it is forwarded to the tenant's feed, standing
// for the whole block, when the block closes. A fixed position (always the
// k-th op) would alias with cyclic traffic: a scan whose per-shard length is
// a multiple of k would feed the same keys on every pass, and the UMON would
// read that as reuse the full stream never has.
//
// All of it is plain state under the shard lock the caller holds, and the
// generator is seeded per shard and tenant, so which ops are forwarded
// depends only on each shard's own op order. Lock order: the feed mutex is
// taken under a shard lock here, and nothing takes a shard lock while
// holding a feed mutex (the governor reads its curves before SetQuotas, and
// the stats surfaces call Stats before Fed).
func (c *Cache) sample(ts *tenantShard, tenant int, h uint64) {
	ts.untilSample--
	if ts.untilSample == ts.pick {
		ts.pending = h
	}
	if ts.untilSample > 0 {
		return
	}
	f := c.feeds[tenant]
	k := f.Stride()
	f.Forward(ts.pending, k)
	ts.untilSample = k
	ts.pick = ts.rng.Uint64() % k
}

// drop removes slot i of the tenant shard for the given reason and counts
// it. Only a cache with an OnEvict callback builds eviction batches: drop
// then appends the entry to batch.
func (c *Cache) drop(ts *tenantShard, tenant int, i int32, reason Reason, batch []Eviction) []Eviction {
	if c.cfg.OnEvict != nil {
		e := &ts.slots[i]
		batch = append(batch, Eviction{Tenant: tenant, Key: e.key, Value: e.value, Size: e.size(), Reason: reason})
	}
	if reason == ReasonCapacity {
		ts.capEvictions++
	} else {
		ts.expirations++
	}
	ts.remove(i)
	return batch
}

// shrink evicts from the tenant shard's LRU tail until it is within quota.
func (c *Cache) shrink(ts *tenantShard, tenant int, batch []Eviction) []Eviction {
	for ts.bytes > ts.quota {
		batch = c.drop(ts, tenant, ts.slots[0].prev, ReasonCapacity, batch)
	}
	return batch
}

// report invokes the eviction callback for a batch, outside any lock, in
// the order the entries were removed.
func (c *Cache) report(batch []Eviction) {
	for _, ev := range batch {
		c.cfg.OnEvict(ev)
	}
}

// SetQuotas installs new per-tenant byte quotas (one per tenant), dividing
// each across shards (the remainder goes to the low shards) and immediately
// evicting any tenant's LRU entries above its new shard quota. This is the
// enforcement point the governor drives each epoch.
func (c *Cache) SetQuotas(quotas []int64) error {
	if len(quotas) != len(c.cfg.Tenants) {
		return fmt.Errorf("cacheserve: got %d quotas for %d tenants", len(quotas), len(c.cfg.Tenants))
	}
	var total int64
	for t, q := range quotas {
		if q < 0 {
			return fmt.Errorf("cacheserve: tenant %d quota is negative", t)
		}
		total += q
	}
	if total > c.cfg.CapacityBytes {
		return fmt.Errorf("cacheserve: quotas sum to %d > capacity %d", total, c.cfg.CapacityBytes)
	}
	nshards := int64(len(c.shards))
	for si := range c.shards {
		sh := &c.shards[si]
		var evicted []Eviction
		sh.mu.Lock()
		for t := range sh.tenants {
			ts := &sh.tenants[t]
			ts.quota = quotas[t] / nshards
			if int64(si) < quotas[t]%nshards {
				ts.quota++
			}
			evicted = c.shrink(ts, t, evicted)
		}
		sh.mu.Unlock()
		c.report(evicted)
	}
	return nil
}

// TenantQuota returns the tenant's current total byte quota.
func (c *Cache) TenantQuota(tenant int) int64 {
	if c.checkTenant(tenant) != nil {
		return 0
	}
	var total int64
	for si := range c.shards {
		sh := &c.shards[si]
		sh.mu.Lock()
		total += sh.tenants[tenant].quota
		sh.mu.Unlock()
	}
	return total
}

// TenantUsage returns the tenant's current bytes in cache.
func (c *Cache) TenantUsage(tenant int) int64 {
	if c.checkTenant(tenant) != nil {
		return 0
	}
	var total int64
	for si := range c.shards {
		sh := &c.shards[si]
		sh.mu.Lock()
		total += sh.tenants[tenant].bytes
		sh.mu.Unlock()
	}
	return total
}

// Len returns the total number of live entries.
func (c *Cache) Len() int {
	n := 0
	for si := range c.shards {
		sh := &c.shards[si]
		sh.mu.Lock()
		for t := range sh.tenants {
			n += sh.tenants[t].index.n
		}
		sh.mu.Unlock()
	}
	return n
}

// TenantStats aggregates one tenant's counters across shards.
type TenantStats struct {
	Name                        string
	Hits, Misses, Sets, Deletes uint64
	CapacityEvictions           uint64
	Expirations                 uint64
	Keys                        int
	BytesUsed, QuotaBytes       int64
	// SampledAccesses is the number of accesses offered to the tenant's UMON
	// feed: Hits + Misses + Sets, summed under the same shard locks (0 when
	// sampling is off). Each tenant shard forwards one in Stride() of its
	// own ops, so Fed()·Stride() trails SampledAccesses by at most
	// Stride()−1 per shard.
	SampledAccesses uint64
}

// HitRatio returns hits/(hits+misses), or 0 before any lookups.
func (s TenantStats) HitRatio() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Stats returns a per-tenant snapshot of counters, usage and quotas. Shards
// are locked one at a time, so the snapshot is per-shard (not globally)
// atomic — fine for reporting, not a linearizable sum.
func (c *Cache) Stats() []TenantStats {
	out := make([]TenantStats, len(c.cfg.Tenants))
	for t := range out {
		out[t].Name = c.cfg.Tenants[t].Name
	}
	for si := range c.shards {
		sh := &c.shards[si]
		sh.mu.Lock()
		for t := range sh.tenants {
			ts := &sh.tenants[t]
			out[t].Hits += ts.hits
			out[t].Misses += ts.misses
			out[t].Sets += ts.sets
			out[t].Deletes += ts.deletes
			out[t].CapacityEvictions += ts.capEvictions
			out[t].Expirations += ts.expirations
			out[t].Keys += ts.index.n
			out[t].BytesUsed += ts.bytes
			out[t].QuotaBytes += ts.quota
			if c.feeds != nil {
				out[t].SampledAccesses += ts.hits + ts.misses + ts.sets
			}
		}
		sh.mu.Unlock()
	}
	return out
}

// sweepLoop periodically removes expired entries so idle tenants do not pin
// dead bytes against their quotas until the next Get.
func (c *Cache) sweepLoop() {
	defer close(c.sweepDone)
	ticker := time.NewTicker(c.cfg.SweepInterval)
	defer ticker.Stop()
	for {
		select {
		case <-c.sweepStop:
			return
		case <-ticker.C:
			c.Sweep()
		}
	}
}

// Sweep removes every expired entry now, shard by shard, and returns how
// many it removed. Within a shard it walks each tenant's slab in slot order
// (free slots carry expireAt 0, so they are skipped like pinned entries), and
// that is the order OnEvict sees the expiries in. The sweeper calls this on
// its interval; tests and embedders may call it directly.
func (c *Cache) Sweep() int {
	now := c.clock()
	removed := 0
	for si := range c.shards {
		sh := &c.shards[si]
		var expired []Eviction
		sh.mu.Lock()
		for t := range sh.tenants {
			ts := &sh.tenants[t]
			for i := range ts.slots {
				if e := &ts.slots[i]; e.expireAt > 0 && now >= e.expireAt {
					expired = c.drop(ts, t, int32(i), ReasonExpired, expired)
					removed++
				}
			}
		}
		sh.mu.Unlock()
		c.report(expired)
	}
	if c.metrics != nil {
		c.metrics.sweepPasses.Inc()
		c.metrics.sweepRemoved.Add(uint64(removed))
	}
	return removed
}

// Close stops the background sweeper (if any). The cache remains usable for
// lookups; Close exists so tests and servers can shut down cleanly.
func (c *Cache) Close() {
	c.closeOnce.Do(func() {
		if c.sweepStop != nil {
			close(c.sweepStop)
			<-c.sweepDone
		}
	})
}

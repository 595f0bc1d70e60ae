package cacheserve

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/stats"
	"repro/internal/tracein"
)

// maxReplayKey bounds the per-tenant key table a Replayer prerenders. Key
// strings are built once, before the timed run, so the hot loop never
// formats; the price is a table of maxKey+1 keys per tenant, which only
// stays honest for dense key spaces like the derived generators emit. A
// trace with a sparse giant key defeats that layout, so it is rejected up
// front instead of silently exhausting memory. It must stay below 10⁷: every
// key renders as exactly seven digits, which fixes the table's key width.
const maxReplayKey = 1 << 23

// replayShardLimit caps Run's workers: each record carries its key's shard
// modulo 256, so at most 256 workers can own disjoint shard sets.
const replayShardLimit = 256

// replayLatencyStride keeps latency measurement off the replay hot path: one
// in this many operations is timed. The stride keys on the global op index,
// and 61 is prime, so it is coprime with every tenant count: a power-of-two
// stride, when the recording alternates tenants, only ever times tenant 0.
const replayLatencyStride = 61

// Replayer drives a recorded kv trace against a live Cache. Construction
// does every per-record preparation that would otherwise pollute a timed
// run — key rendering and hashing, shard placement, value sizing,
// kind/tenant validation — so Run measures cache traffic, not formatting.
type Replayer struct {
	cache   *Cache
	tr      *tracein.Trace
	tenants []replayKeys
	// shard[i] is the cache shard record i's key lands on, modulo 256. Run's
	// workers pick their records by scanning it in order; reading the key's
	// hash instead would cost every skipped record a random memory access.
	shard []uint8
	// val is one shared read-only value buffer sized to the largest set in
	// the trace; Set copies, so workers may slice it concurrently.
	val []byte
	// fillSize is the value size used to fill on a missed get: the trace's
	// largest set size (gets carry no size of their own).
	fillSize uint32
}

// replayKeys is one tenant's prerendered key table: every key 0..maxKey as
// "name-%07d", back to back in one string, with its cache hash.
type replayKeys struct {
	text   string
	width  int
	hashes []uint64
}

// key returns key k, a substring of the table: no allocation, no copy.
func (rk *replayKeys) key(k uint64) string {
	off := int(k) * rk.width
	return rk.text[off : off+rk.width]
}

// newReplayKeys renders and hashes tenant t's keys 0..maxKey.
func newReplayKeys(t int, name string, maxKey uint64) replayKeys {
	n := int(maxKey) + 1
	rk := replayKeys{width: len(name) + 8, hashes: make([]uint64, n)}
	var b strings.Builder
	b.Grow(n * rk.width)
	buf := make([]byte, rk.width)
	for k := 0; k < n; k++ {
		putReplayKey(buf, name, k)
		b.Write(buf)
	}
	rk.text = b.String()
	for k := range rk.hashes {
		rk.hashes[k] = hashKey(t, rk.key(uint64(k)))
	}
	return rk
}

// putReplayKey writes fmt.Sprintf("%s-%07d", name, k) into dst, which holds
// exactly len(name)+8 bytes; k must be below 10⁷ (see maxReplayKey).
func putReplayKey(dst []byte, name string, k int) {
	copy(dst, name)
	dst[len(name)] = '-'
	for d := len(dst) - 1; d > len(name); d-- {
		dst[d] = byte('0' + k%10)
		k /= 10
	}
}

// ReplayTenantStats aggregates one tenant's replayed traffic.
type ReplayTenantStats struct {
	Gets, Sets, Hits uint64
	// Rejected counts the Sets, recorded or fill-on-miss, the cache refused
	// (an entry larger than the tenant's per-shard quota).
	Rejected uint64
	// Latency holds the sampled per-operation wall latencies in nanoseconds.
	Latency *stats.Sample
}

// NewReplayer validates the trace against the cache and prepares the replay
// tables. The trace must be kv-kind and declare no more tenants than the
// cache has.
func NewReplayer(c *Cache, tr *tracein.Trace) (*Replayer, error) {
	if tr.Kind() != tracein.KindKV {
		return nil, fmt.Errorf("cacheserve: replay needs a kv trace; this one records %s accesses (generate with -kind kv)", tr.Kind())
	}
	if tr.Apps() > c.NumTenants() {
		return nil, fmt.Errorf("cacheserve: trace declares %d tenants but the cache has %d", tr.Apps(), c.NumTenants())
	}
	maxKey := make([]uint64, tr.Apps())
	var fill uint32
	for i := 0; i < tr.Len(); i++ {
		r := tr.Record(i)
		if r.Key > maxKey[r.App] {
			maxKey[r.App] = r.Key
		}
		if r.Size > fill {
			fill = r.Size
		}
	}
	if fill == 0 {
		fill = 128 // an all-gets trace still needs fill-on-miss values
	}
	rp := &Replayer{
		cache:    c,
		tr:       tr,
		tenants:  make([]replayKeys, tr.Apps()),
		shard:    make([]uint8, tr.Len()),
		val:      make([]byte, fill),
		fillSize: fill,
	}
	for t := range rp.tenants {
		if maxKey[t] >= maxReplayKey {
			return nil, fmt.Errorf("cacheserve: tenant %d uses key %d; the replayer prerenders dense key tables and caps them at %d keys", t, maxKey[t], uint64(maxReplayKey))
		}
		rp.tenants[t] = newReplayKeys(t, c.Tenant(t).Name, maxKey[t])
	}
	for i := range rp.shard {
		r := tr.Record(i)
		rp.shard[i] = uint8(rp.tenants[r.App].hashes[r.Key] & c.mask)
	}
	return rp, nil
}

// Run replays ops operations and returns the per-tenant totals. Operation i
// replays record i modulo the trace length, so asking for more operations
// than the trace holds wraps the recording. The work is split by cache
// shard, not by op: min(goroutines, NumShards, 256) workers run, and worker
// w replays, in trace order, every operation whose shard is w modulo the
// worker count. No two workers touch one shard, and each shard sees its
// operations in trace order, so without a governor moving quotas the
// cache's contents and counters are the same at any goroutine count. Each
// worker keeps private counters and latency samples, merged only after
// every worker is done, so the measurement adds no shared state to the
// replayed traffic.
func (rp *Replayer) Run(ops, goroutines int) ([]ReplayTenantStats, error) {
	if ops < 1 || goroutines < 1 {
		return nil, fmt.Errorf("cacheserve: replay needs ops and goroutines >= 1, got %d and %d", ops, goroutines)
	}
	type workerStats struct {
		gets, sets, hits, rejected []uint64
		lat                        []*stats.Sample
	}
	tenants := rp.tr.Apps()
	workers := min(goroutines, rp.cache.NumShards(), replayShardLimit)
	perWorker := make([]workerStats, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ws := &perWorker[w]
			ws.gets = make([]uint64, tenants)
			ws.sets = make([]uint64, tenants)
			ws.hits = make([]uint64, tenants)
			ws.rejected = make([]uint64, tenants)
			ws.lat = make([]*stats.Sample, tenants)
			for t := range ws.lat {
				ws.lat[t] = stats.NewSample(ops / workers / replayLatencyStride / tenants)
			}
			var mine [replayShardLimit]bool
			for s := w; s < replayShardLimit; s += workers {
				mine[s] = true
			}
			c := rp.cache
			n := rp.tr.Len()
			for pass := 0; pass < ops; pass += n {
				for j, s := range rp.shard[:min(n, ops-pass)] {
					if !mine[s] {
						continue
					}
					i := pass + j
					r := rp.tr.Record(j)
					t := int(r.App)
					rk := &rp.tenants[t]
					key, h := rk.key(r.Key), rk.hashes[r.Key]
					timed := i%replayLatencyStride == 0
					var begin time.Time
					if timed {
						begin = time.Now()
					}
					if r.Op == tracein.OpSet {
						if c.set(t, h, key, rp.val[:r.Size], 0) != nil {
							ws.rejected[t]++
						}
						ws.sets[t]++
					} else {
						if _, ok := c.get(t, h, key); ok {
							ws.hits[t]++
						} else {
							// Fill on miss, as a real service would on its
							// way back from the backing store.
							if c.set(t, h, key, rp.val[:rp.fillSize], 0) != nil {
								ws.rejected[t]++
							}
						}
						ws.gets[t]++
					}
					if timed {
						ws.lat[t].Add(float64(time.Since(begin).Nanoseconds()))
					}
				}
			}
		}(w)
	}
	wg.Wait()

	out := make([]ReplayTenantStats, tenants)
	for t := range out {
		out[t].Latency = stats.NewSample(1024)
		for w := range perWorker {
			out[t].Gets += perWorker[w].gets[t]
			out[t].Sets += perWorker[w].sets[t]
			out[t].Hits += perWorker[w].hits[t]
			out[t].Rejected += perWorker[w].rejected[t]
			out[t].Latency.AddAll(perWorker[w].lat[t].Values())
		}
	}
	return out, nil
}

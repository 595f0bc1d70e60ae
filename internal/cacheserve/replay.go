package cacheserve

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/stats"
	"repro/internal/tracein"
)

// maxReplayKey bounds the per-tenant key table a Replayer prerenders. Key
// strings are built once, before the timed run, so the hot loop never
// formats; the price is a table of maxKey+1 strings per tenant, which only
// stays honest for dense key spaces like the derived generators emit. A
// trace with a sparse giant key defeats that layout, so it is rejected up
// front instead of silently exhausting memory.
const maxReplayKey = 1 << 23

// replayLatencyStride keeps latency measurement off the replay hot path: one
// in this many operations is timed. 61 is prime, so it is coprime with every
// tenant and goroutine count: a power-of-two stride only ever times worker 0
// and, when the recording alternates tenants, tenant 0.
const replayLatencyStride = 61

// Replayer drives a recorded kv trace against a live Cache. Construction
// does every per-record preparation that would otherwise pollute a timed
// run — key-string rendering, value sizing, kind/tenant validation — so Run
// measures cache traffic, not formatting.
type Replayer struct {
	cache *Cache
	tr    *tracein.Trace
	// keys[t][k] is the prerendered key string for tenant t's key k.
	keys [][]string
	// val is one shared read-only value buffer sized to the largest set in
	// the trace; Set copies, so workers may slice it concurrently.
	val []byte
	// fillSize is the value size used to fill on a missed get: the trace's
	// largest set size (gets carry no size of their own).
	fillSize uint32
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
		keys:     make([][]string, tr.Apps()),
		val:      make([]byte, fill),
		fillSize: fill,
	}
	for t := range rp.keys {
		if maxKey[t] >= maxReplayKey {
			return nil, fmt.Errorf("cacheserve: tenant %d uses key %d; the replayer prerenders dense key tables and caps them at %d keys", t, maxKey[t], uint64(maxReplayKey))
		}
		ks := make([]string, maxKey[t]+1)
		name := c.Tenant(t).Name
		for k := range ks {
			ks[k] = fmt.Sprintf("%s-%07d", name, k)
		}
		rp.keys[t] = ks
	}
	return rp, nil
}

// Run replays ops operations across the given goroutines and returns the
// per-tenant totals. Worker w handles operations i with i%goroutines == w;
// operation i replays record i modulo the trace length, so asking for more
// operations than the trace holds wraps the recording. Each worker keeps
// private counters and latency samples, merged only after every worker is
// done, so the measurement adds no shared state to the replayed traffic.
func (rp *Replayer) Run(ops, goroutines int) ([]ReplayTenantStats, error) {
	if ops < 1 || goroutines < 1 {
		return nil, fmt.Errorf("cacheserve: replay needs ops and goroutines >= 1, got %d and %d", ops, goroutines)
	}
	type workerStats struct {
		gets, sets, hits, rejected []uint64
		lat                        []*stats.Sample
	}
	tenants := rp.tr.Apps()
	perWorker := make([]workerStats, goroutines)
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
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
				ws.lat[t] = stats.NewSample(ops / goroutines / replayLatencyStride / tenants)
			}
			n := rp.tr.Len()
			for i := w; i < ops; i += goroutines {
				r := rp.tr.Record(i % n)
				t := int(r.App)
				key := rp.keys[t][r.Key]
				timed := i%replayLatencyStride == 0
				var begin time.Time
				if timed {
					begin = time.Now()
				}
				if r.Op == tracein.OpSet {
					if rp.cache.Set(t, key, rp.val[:r.Size], 0) != nil {
						ws.rejected[t]++
					}
					ws.sets[t]++
				} else {
					if _, ok := rp.cache.Get(t, key); ok {
						ws.hits[t]++
					} else {
						// Fill on miss, as a real service would on its way
						// back from the backing store.
						if rp.cache.Set(t, key, rp.val[:rp.fillSize], 0) != nil {
							ws.rejected[t]++
						}
					}
					ws.gets[t]++
				}
				if timed {
					ws.lat[t].Add(float64(time.Since(begin).Nanoseconds()))
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

package cacheserve

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/metrics"
)

// benchKeys pre-renders the key space once per process so key formatting does
// not dominate the measured op cost.
var benchKeys []string

func benchKeySpace(n int) []string {
	if len(benchKeys) < n {
		benchKeys = make([]string, n)
		for i := range benchKeys {
			benchKeys[i] = fmt.Sprintf("key-%07d", i)
		}
	}
	return benchKeys[:n]
}

func benchCache(b *testing.B, sampleRate float64) *Cache {
	b.Helper()
	c, err := New(Config{
		CapacityBytes: 64 << 20,
		Shards:        32,
		SampleRate:    sampleRate,
		Tenants:       []TenantConfig{{Name: "bench"}},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Close)
	return c
}

// benchMix runs the 90% Get / 10% Set zipf mix the issue's throughput bar is
// stated against, returning ops issued.
func benchMix(c *Cache, keys []string, zipf *rand.Zipf, rng *rand.Rand, val []byte, n int) (hits int) {
	for i := 0; i < n; i++ {
		k := keys[zipf.Uint64()]
		if rng.Intn(10) == 0 {
			c.Set(0, k, val, 0)
		} else if _, ok := c.Get(0, k); ok {
			hits++
		}
	}
	return hits
}

// BenchmarkCacheServeZipf is the serial baseline of the mixed zipf workload
// over a 1M-key space.
func BenchmarkCacheServeZipf(b *testing.B) {
	c := benchCache(b, 0)
	keys := benchKeySpace(1 << 20)
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(keys)-1))
	val := make([]byte, 128)
	benchMix(c, keys, zipf, rng, val, len(keys)/4) // warm
	b.ResetTimer()
	hits := benchMix(c, keys, zipf, rng, val, b.N)
	b.ReportMetric(float64(hits)/float64(b.N), "hit-ratio")
}

// BenchmarkCacheServeZipfParallel is the acceptance benchmark: many
// goroutines, 1M-key zipf mix, aggregate throughput (ops/sec = 1e9 / ns/op).
func BenchmarkCacheServeZipfParallel(b *testing.B) {
	c := benchCache(b, 0)
	keys := benchKeySpace(1 << 20)
	val := make([]byte, 128)
	{
		rng := rand.New(rand.NewSource(1))
		benchMix(c, keys, rand.NewZipf(rng, 1.1, 1, uint64(len(keys)-1)), rng, val, len(keys)/4)
	}
	var hits, ops atomic.Uint64
	var seed atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(seed.Add(1)))
		zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(keys)-1))
		var h, n uint64
		for pb.Next() {
			k := keys[zipf.Uint64()]
			if rng.Intn(10) == 0 {
				c.Set(0, k, val, 0)
			} else if _, ok := c.Get(0, k); ok {
				h++
			}
			n++
		}
		hits.Add(h)
		ops.Add(n)
	})
	if n := ops.Load(); n > 0 {
		b.ReportMetric(float64(hits.Load())/float64(n), "hit-ratio")
	}
}

// BenchmarkCacheServeZipfSampled measures the cost the UMON sampling feed adds
// to the same parallel mix (stride 1 in 100).
func BenchmarkCacheServeZipfSampled(b *testing.B) {
	c := benchCache(b, 0.01)
	keys := benchKeySpace(1 << 20)
	val := make([]byte, 128)
	var seed atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(seed.Add(1)))
		zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(keys)-1))
		for pb.Next() {
			k := keys[zipf.Uint64()]
			if rng.Intn(10) == 0 {
				c.Set(0, k, val, 0)
			} else {
				c.Get(0, k)
			}
		}
	})
}

// BenchmarkCacheServeInstrumented is BenchmarkCacheServeZipfParallel with a
// metrics registry attached: compare its ns/op with the uninstrumented mix,
// and ReportAllocs shows the hot path at 0 allocs/op.
func BenchmarkCacheServeInstrumented(b *testing.B) {
	reg := metrics.NewRegistry()
	c, err := New(Config{
		CapacityBytes: 64 << 20,
		Shards:        32,
		Metrics:       reg,
		Tenants:       []TenantConfig{{Name: "bench"}},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Close)
	keys := benchKeySpace(1 << 20)
	val := make([]byte, 128)
	{
		rng := rand.New(rand.NewSource(1))
		benchMix(c, keys, rand.NewZipf(rng, 1.1, 1, uint64(len(keys)-1)), rng, val, len(keys)/4)
	}
	var seed atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(seed.Add(1)))
		zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(keys)-1))
		for pb.Next() {
			k := keys[zipf.Uint64()]
			if rng.Intn(10) == 0 {
				c.Set(0, k, val, 0)
			} else {
				c.Get(0, k)
			}
		}
	})
}

// BenchmarkCacheServeScanParallel streams sequentially over the key space
// (no reuse) — the eviction-heavy worst case.
func BenchmarkCacheServeScanParallel(b *testing.B) {
	c := benchCache(b, 0)
	keys := benchKeySpace(1 << 20)
	val := make([]byte, 128)
	var pos atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			k := keys[pos.Add(1)%uint64(len(keys))]
			if _, ok := c.Get(0, k); !ok {
				c.Set(0, k, val, 0)
			}
		}
	})
}

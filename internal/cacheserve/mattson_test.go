package cacheserve

import (
	"fmt"
	"math"
	"strconv"
	"testing"

	"repro/internal/monitor"
	"repro/internal/tracein"
)

// mattsonMissRatios returns the exact fully associative LRU miss ratio of
// the address stream at each capacity (in addresses). It is Mattson's stack
// algorithm: a reuse hits at every capacity at or above its stack distance,
// the number of distinct addresses touched since its last access, itself
// included. A Fenwick tree over access times holds a 1 at each address's
// latest access, so each distance is one prefix-sum difference and the
// whole stream costs O(N log N).
func mattsonMissRatios(addrs []uint64, capacities []uint64) []float64 {
	n := len(addrs)
	tree := make([]int, n+1)
	add := func(i, v int) {
		for ; i <= n; i += i & -i {
			tree[i] += v
		}
	}
	prefix := func(i int) (s int) {
		for ; i > 0; i -= i & -i {
			s += tree[i]
		}
		return s
	}
	last := make(map[uint64]int)
	// hist[d] counts reuses at stack distance d; first touches miss at
	// every capacity.
	hist := make([]int, n+1)
	cold := 0
	for i, a := range addrs {
		now := i + 1
		if prev, ok := last[a]; ok {
			hist[prefix(now-1)-prefix(prev)+1]++
			add(prev, -1)
		} else {
			cold++
		}
		add(now, 1)
		last[a] = now
	}
	out := make([]float64, len(capacities))
	for i, c := range capacities {
		misses := cold
		for d := int(min(c, uint64(n))) + 1; d <= n; d++ {
			misses += hist[d]
		}
		out[i] = float64(misses) / float64(n)
	}
	return out
}

// TestMattsonOracle pins the oracle on streams whose LRU behaviour is known
// by hand.
func TestMattsonOracle(t *testing.T) {
	// a b c a b c: distances 3,3,3 after three cold misses.
	got := mattsonMissRatios([]uint64{1, 2, 3, 1, 2, 3}, []uint64{0, 2, 3, 10})
	want := []float64{1, 1, 0.5, 0.5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cyclic stream: miss ratios %v, want %v", got, want)
		}
	}
	// a a b a: distances 1 and 2.
	got = mattsonMissRatios([]uint64{7, 7, 8, 7}, []uint64{1, 2})
	if got[0] != 0.75 || got[1] != 0.5 {
		t.Fatalf("reuse stream: miss ratios %v, want [0.75 0.5]", got)
	}
}

// TestShardStrideCurveMatchesExactLRU checks that counting the sampling
// stride per tenant shard keeps stride sampling's statistics, against the
// exact LRU curve of the op stream the feed is offered. The reference is a
// SampledUMON fed the same stream through Access, which counts one global
// stride and forwards every k-th op.
//
// On the zipf trace the draws are independent, so any 1-in-k subsequence has
// the stream's distribution, and the per-shard curve must be about as close
// to exact as the global one. On a scan the two sampling rules differ in
// kind. A fixed position re-feeds the same keys on every pass when the
// period is a multiple of k (the third case, where Access's curve reads
// nearly every scan op as a hit), and otherwise feeds a key at most once
// per several dozen passes. The cache's random position never aliases, but
// re-samples a key it fed in an earlier pass with probability about 1/k per
// pass, and the UMON reads each such re-sample as a hit. So on a scan of P
// passes its curve may sit up to P/k below the exact one.
func TestShardStrideCurveMatchesExactLRU(t *testing.T) {
	const rate, records = 0.01, 400_000
	cases := []struct {
		gen    tracein.Gen
		keys   uint64
		shards int
	}{
		{tracein.GenZipf, 65536, 8},
		{tracein.GenScan, 65536, 8},
		// One shard whose scan period, 20000 ops, is a multiple of k = 100.
		{tracein.GenScan, 20000, 1},
	}
	for _, tc := range cases {
		name := fmt.Sprintf("%s/%dkeys/%dshards", tc.gen, tc.keys, tc.shards)
		tr, err := tracein.GenerateTrace(tracein.GenSpec{
			Kind: tracein.KindKV, Gen: tc.gen, Records: records, Keys: tc.keys, Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		c, err := New(Config{CapacityBytes: 1 << 20, Shards: tc.shards, SampleRate: rate, Tenants: []TenantConfig{{Name: "only"}}})
		if err != nil {
			t.Fatal(err)
		}
		u, err := monitor.NewUMON(c.CapacityLines(), 16, 256)
		if err != nil {
			t.Fatal(err)
		}
		global, err := monitor.NewSampledUMON(u, rate)
		if err != nil {
			t.Fatal(err)
		}
		addrs := make([]uint64, tr.Len())
		val := make([]byte, 128)
		for i := range addrs {
			r := tr.Record(i)
			key := "k" + strconv.FormatUint(r.Key, 10)
			h := hashKey(0, key)
			if r.Op == tracein.OpSet {
				if err := c.set(0, h, key, val, 0); err != nil {
					t.Fatal(err)
				}
			} else {
				c.get(0, h, key)
			}
			global.Access(h)
			addrs[i] = h
		}
		c.Close()
		shardCurve := c.Feed(0).MissCurve(monitor.SampledSnapshot{})
		globalCurve := global.MissCurve(monitor.SampledSnapshot{})
		ways := len(shardCurve.Misses) - 1
		capacities := make([]uint64, ways+1)
		for w := range capacities {
			capacities[w] = uint64(w) * shardCurve.TotalLines / uint64(ways)
		}
		exact := mattsonMissRatios(addrs, capacities)
		maxErr := func(m monitor.MissCurve) float64 {
			e := 0.0
			for w := range exact {
				e = math.Max(e, math.Abs(m.Misses[w]/m.Accesses-exact[w]))
			}
			return e
		}
		shardErr, globalErr := maxErr(shardCurve), maxErr(globalCurve)
		t.Logf("%s: max miss-ratio error, per-shard stride %.4f, global stride %.4f", name, shardErr, globalErr)
		if tc.gen == tracein.GenZipf {
			if shardErr > 1.25*globalErr+0.01 {
				t.Errorf("%s: per-shard stride error %.4f exceeds 1.25 × global stride error %.4f + 0.01", name, shardErr, globalErr)
			}
			continue
		}
		passes := float64(records) / float64(tc.keys)
		if limit := passes*rate + 0.01; shardErr > limit {
			t.Errorf("%s: per-shard stride error %.4f exceeds the re-sampling bound %.4f (%.1f passes × 1/k + 0.01)", name, shardErr, limit, passes)
		}
	}
}

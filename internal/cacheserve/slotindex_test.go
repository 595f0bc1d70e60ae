package cacheserve

import (
	"fmt"
	"math/rand"
	"testing"
)

// indexModel drives a slotIndex and a map[uint64]int32 model side by side.
// Slots come from a slab the way a tenant shard hands them out (slot 0 is the
// sentinel, freed slots are reused first), and each slot stores its hash, so
// the index's fingerprint confirmation sees what it sees in the cache.
type indexModel struct {
	ts    tenantShard
	model map[uint64]int32
	free  []int32
}

func newIndexModel(seed uint64) *indexModel {
	return &indexModel{
		ts:    tenantShard{slots: make([]entry, 1), index: newSlotIndex(seed)},
		model: make(map[uint64]int32),
	}
}

func (m *indexModel) put(h uint64) {
	if _, ok := m.model[h]; ok {
		return
	}
	var s int32
	if n := len(m.free); n > 0 {
		s, m.free = m.free[n-1], m.free[:n-1]
	} else {
		s = int32(len(m.ts.slots))
		m.ts.slots = append(m.ts.slots, entry{})
	}
	m.ts.slots[s].hash = h
	m.ts.index.put(h, s)
	m.model[h] = s
}

func (m *indexModel) del(h uint64) {
	s, ok := m.model[h]
	if !ok {
		return
	}
	m.ts.index.del(h, s)
	m.ts.slots[s] = entry{}
	m.free = append(m.free, s)
	delete(m.model, h)
}

// check compares a lookup of h with the model, and the count n.
func (m *indexModel) check(h uint64) error {
	if got, want := m.ts.index.get(h, m.ts.slots), m.model[h]; got != want {
		return fmt.Errorf("get(%#x) = slot %d, model %d", h, got, want)
	}
	if m.ts.index.n != len(m.model) {
		return fmt.Errorf("n = %d, model holds %d", m.ts.index.n, len(m.model))
	}
	return nil
}

// verify checks every model entry and the index's structural invariants.
func (m *indexModel) verify() error {
	live := make(map[int32]bool, len(m.model))
	for h, s := range m.model {
		if err := m.check(h); err != nil {
			return err
		}
		live[s] = true
	}
	return m.ts.checkIndex(live)
}

// wrapped counts the words stored before their home, i.e. past the end of
// the table.
func (m *indexModel) wrapped() int {
	n := 0
	for p, w := range m.ts.index.words {
		if w != 0 && uint64(p) < w>>m.ts.index.shift {
			n++
		}
	}
	return n
}

// hashWithHome searches for a hash whose home is home in a table of
// 1<<logSize words.
func hashWithHome(x *slotIndex, rng *rand.Rand, home uint64, logSize uint) uint64 {
	for {
		if h := rng.Uint64(); x.tag(h)>>(64-logSize) == home {
			return h
		}
	}
}

// TestSlotIndexMatchesMap is the index's oracle: seeded random put, get and
// delete sequences against a map[uint64]int32, every lookup and the count
// compared after each operation and the structural invariants at intervals.
// The sequences grow the table through several doublings and shrink it
// again, wrap probe runs past the end of the table, and delete the first
// word of long runs that share one home.
func TestSlotIndexMatchesMap(t *testing.T) {
	t.Run("random", func(t *testing.T) {
		wraps := 0
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			m := newIndexModel(rng.Uint64())
			universe := make([]uint64, 6000)
			for i := range universe {
				universe[i] = rng.Uint64()
			}
			maxWords := 0
			for op := 0; op < 60_000; op++ {
				h := universe[rng.Intn(len(universe))]
				// Fill for the first half, drain for the second.
				putBias := 700
				if op >= 30_000 {
					putBias = 300
				}
				switch r := rng.Intn(1000); {
				case r < putBias:
					m.put(h)
				case r < putBias+150: // a lookup alone, by the check below
				default:
					m.del(h)
				}
				if err := m.check(h); err != nil {
					t.Fatalf("seed %d op %d: %v", seed, op, err)
				}
				if op%50 == 0 {
					wraps += m.wrapped()
				}
				if op%500 == 0 {
					if err := m.verify(); err != nil {
						t.Fatalf("seed %d op %d: %v", seed, op, err)
					}
				}
				maxWords = max(maxWords, len(m.ts.index.words))
			}
			if err := m.verify(); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if maxWords < 8*minIndexWords {
				t.Fatalf("seed %d: table peaked at %d words, want several doublings", seed, maxWords)
			}
		}
		if wraps == 0 {
			t.Fatal("no probe run wrapped past the end of the table")
		}
	})

	t.Run("backward shift of a shared-home run", func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		const logSize = 6 // 64 words: room for 48 before the next doubling
		for _, home := range []uint64{3, 1<<logSize - 5, 1<<logSize - 1} {
			m := newIndexModel(rng.Uint64())
			for len(m.ts.index.words) < 1<<logSize {
				m.put(rng.Uint64())
			}
			// A run of 10 words sharing one home, then fillers homed inside
			// it, then the run's first word deleted.
			run := make([]uint64, 10)
			for i := range run {
				run[i] = hashWithHome(&m.ts.index, rng, home, logSize)
				m.put(run[i])
			}
			for i := uint64(1); i <= 3; i++ {
				m.put(hashWithHome(&m.ts.index, rng, (home+i)&(1<<logSize-1), logSize))
			}
			if len(m.ts.index.words) != 1<<logSize {
				t.Fatalf("home %d: table doubled to %d words mid-test", home, len(m.ts.index.words))
			}
			if err := m.verify(); err != nil {
				t.Fatalf("home %d: %v", home, err)
			}
			if home > 1<<logSize-10 && m.wrapped() == 0 {
				t.Fatalf("home %d: the run did not wrap past the end of the table", home)
			}
			for _, h := range run {
				m.del(h)
				if err := m.check(h); err != nil {
					t.Fatalf("home %d: %v", home, err)
				}
				if err := m.verify(); err != nil {
					t.Fatalf("home %d: after deleting the run's first word: %v", home, err)
				}
			}
		}
	})

	t.Run("fingerprint confirmed against the slot's hash", func(t *testing.T) {
		m := newIndexModel(1)
		m.put(42)
		m.ts.slots[m.model[42]].hash = 43 // same word, different stored hash
		if s := m.ts.index.get(42, m.ts.slots); s != 0 {
			t.Fatalf("get matched slot %d on its fingerprint alone", s)
		}
	})
}

// FuzzSlotIndex runs op bytes against the map model: each byte's low two
// bits pick put, put, get or delete, the rest one of 64 hashes, 16 of which
// share a home at every table size up to 1<<12 words.
func FuzzSlotIndex(f *testing.F) {
	f.Add([]byte{0, 4, 8, 12, 3, 7, 2})
	f.Add([]byte{0x00, 0x04, 0x08, 0x0c, 0x10, 0x14, 0x18, 0x1c, 0x20, 0x24, 0x03, 0x04, 0x03})
	seed := uint64(0x5eed)
	probe := newSlotIndex(seed)
	rng := rand.New(rand.NewSource(1))
	hashes := make([]uint64, 64)
	for i := range hashes {
		if i < 16 {
			hashes[i] = hashWithHome(&probe, rng, 0xfff, 12)
		} else {
			hashes[i] = rng.Uint64()
		}
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 256 {
			// 256 ops fill all 64 hashes through every doubling; longer
			// inputs only make the fuzzer's minimisation quadratic.
			t.Skip()
		}
		m := newIndexModel(seed)
		for i, op := range ops {
			h := hashes[op>>2]
			switch op & 3 {
			case 0, 1:
				m.put(h)
			case 3:
				m.del(h)
			}
			if err := m.check(h); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
		if err := m.verify(); err != nil {
			t.Fatal(err)
		}
	})
}

// probeStats returns the mean probe length of a successful lookup (one more
// than a word's distance from its home) and the longest run of occupied
// words.
func probeStats(x *slotIndex) (mean float64, longest int) {
	mask := uint64(len(x.words) - 1)
	var dist, words uint64
	start := 0 // begin the run scan at an empty word so no run is split
	for x.words[start] != 0 {
		start++
	}
	run := 0
	for k := range x.words {
		p := (uint64(start) + uint64(k)) & mask
		w := x.words[p]
		if w == 0 {
			run = 0
			continue
		}
		run++
		longest = max(longest, run)
		dist += (p - w>>x.shift) & mask
		words++
	}
	return 1 + float64(dist)/float64(words), longest
}

// TestSlotIndexResistsFloods feeds one tenant shard keys whose hashes an
// adversary who knows hashKey could aim at one home: hashes sharing
// hashKey's top 32 bits, and hashes differing only above bit 40. Filled to
// just under the 3/4 load that would double the table, every key must be
// found and deletable, and each set's mean probe length must stay within 2×
// of random hashes' and its longest run within 4×.
func TestSlotIndexResistsFloods(t *testing.T) {
	n, logSize := 196_000, uint(18)
	if testing.Short() {
		n, logSize = 12_000, 14
	}
	base := hashKey(0, "flood")
	rng := rand.New(rand.NewSource(30))
	sets := []struct {
		name string
		hash func(i int) uint64
	}{
		{"random", func(int) uint64 { return rng.Uint64() }},
		{"shared top 32 bits", func(i int) uint64 { return base&^(1<<32-1) | uint64(i) }},
		{"differ only above bit 40", func(i int) uint64 { return base&(1<<40-1) | uint64(i)<<40 }},
	}
	var randMean float64
	var randLongest int
	for _, set := range sets {
		c := mustNew(t, Config{CapacityBytes: 64 << 20, Shards: 1, Tenants: []TenantConfig{{Name: "only"}}})
		hashes := make([]uint64, n)
		for i := range hashes {
			hashes[i] = set.hash(i)
			if err := c.set(0, hashes[i], fmt.Sprint(i), nil, 0); err != nil {
				t.Fatal(err)
			}
		}
		x := &c.shards[0].tenants[0].index
		if len(x.words) != 1<<logSize || x.n != n {
			t.Fatalf("%s: %d words hold %d keys, want %d in %d", set.name, len(x.words), x.n, n, 1<<logSize)
		}
		if err := c.checkInvariants(); err != nil {
			t.Fatalf("%s: %v", set.name, err)
		}
		mean, longest := probeStats(x)
		t.Logf("%s: mean probe %.2f, longest run %d", set.name, mean, longest)
		if set.name == "random" {
			randMean, randLongest = mean, longest
		} else if mean > 2*randMean || longest > 4*randLongest {
			t.Errorf("%s: mean probe %.2f, longest run %d; random hashes %.2f, %d", set.name, mean, longest, randMean, randLongest)
		}
		for i, h := range hashes {
			if _, ok := c.get(0, h, fmt.Sprint(i)); !ok {
				t.Fatalf("%s: key %d not found", set.name, i)
			}
		}
		for i, h := range hashes {
			if !c.del(0, h, fmt.Sprint(i)) {
				t.Fatalf("%s: key %d not deletable", set.name, i)
			}
		}
		if c.Len() != 0 {
			t.Fatalf("%s: %d keys left after deleting them all", set.name, c.Len())
		}
		if err := c.checkInvariants(); err != nil {
			t.Fatalf("%s: %v", set.name, err)
		}
	}
}

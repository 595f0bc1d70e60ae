package cache

import (
	"encoding/binary"
	"testing"
)

// refPrivateLevel is the stamped-LRU private level PrivateLevel replaced,
// kept as its oracle: each way is an {addr, stamp} pair, stamp 0 means
// invalid, a hit refreshes the stamp from a per-level clock and a miss fills
// the way with the smallest stamp (the first invalid way, else the LRU line).
type refPrivateLevel struct {
	numSets, ways uint64
	words         []uint64 // 2 per way: addr, stamp (0 = invalid)
	clock         uint64
}

func newRefPrivateLevel(cfg LevelConfig) *refPrivateLevel {
	return &refPrivateLevel{
		numSets: cfg.Lines / uint64(cfg.Ways),
		ways:    uint64(cfg.Ways),
		words:   make([]uint64, 2*cfg.Lines),
	}
}

func (l *refPrivateLevel) set(addr uint64) []uint64 {
	base := reduceRange(hashAddr(addr), l.numSets) * l.ways * 2
	return l.words[base : base+l.ways*2]
}

func (l *refPrivateLevel) access(addr uint64) (hit bool, evicted uint64, evictedValid bool) {
	l.clock++
	set := l.set(addr)
	victim, victimUse := 0, ^uint64(0)
	for i := 0; i < len(set); i += 2 {
		if set[i+1] != 0 && set[i] == addr {
			set[i+1] = l.clock
			return true, 0, false
		}
		if set[i+1] < victimUse {
			victim, victimUse = i, set[i+1]
		}
	}
	evicted, evictedValid = set[victim], victimUse != 0
	set[victim], set[victim+1] = addr, l.clock
	return false, evicted, evictedValid
}

func (l *refPrivateLevel) invalidate(addr uint64) {
	set := l.set(addr)
	for i := 0; i < len(set); i += 2 {
		if set[i+1] != 0 && set[i] == addr {
			set[i+1] = 0
			return
		}
	}
}

func (l *refPrivateLevel) contains(addr uint64) bool {
	set := l.set(addr)
	for i := 0; i < len(set); i += 2 {
		if set[i+1] != 0 && set[i] == addr {
			return true
		}
	}
	return false
}

func (l *refPrivateLevel) reset() {
	clear(l.words)
	l.clock = 0
}

// privateLevelPool is the address pool the differential fuzz draws from:
// small enough that sets fill, conflict and re-hit, and holding 0 and
// ^uint64(0), which an invalid-address sentinel would have to claim.
var privateLevelPool = [16]uint64{
	0, ^uint64(0), 1, 2, 3, 5, 8, 13, 64, 4096,
	1 << 32, 1<<63 - 1, 1 << 63, 0xdeadbeef, 0x9e3779b97f4a7c15, ^uint64(0) - 1,
}

// FuzzPrivateLevelMatchesReference drives one PrivateLevel and its stamped
// oracle through the same random Access/Invalidate/Reset sequence and checks
// after every op that both return the same (hit, evicted, evictedValid) —
// evicted only where evictedValid says there is a victim — and hold the same
// lines. The first input byte picks the associativity (1, 2, 4,
// 8 or 16 ways) and the set count (1, 2 or 4); each later byte is one op.
func FuzzPrivateLevelMatchesReference(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x12, 0x23, 0x01, 0x34, 0x45})
	f.Add([]byte{0x02, 0x10, 0x21, 0x32, 0x43, 0x54, 0x65, 0x10, 0x76, 0x87, 0x98, 0xa9, 0xba, 0x21})
	f.Add([]byte{0x03, 0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x80, 0x81, 0x00})
	f.Add([]byte{0x09, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff, 0x11, 0xf0, 0x0f, 0x1e})
	f.Add([]byte{0x0e, 0xf0, 0xf1, 0xf2, 0xf3, 0xe4, 0xe5, 0xe6, 0xe7, 0xd8, 0xd9, 0xda, 0xdb, 0xcc, 0xcd, 0xce, 0xcf, 0xf0, 0x00})
	seed := make([]byte, 1, 513)
	for i := uint64(1); len(seed) < cap(seed); i++ {
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], hashAddr(i))
		seed = append(seed, w[:]...)
	}
	for cfg := byte(0); cfg < 15; cfg++ {
		seed[0] = cfg
		f.Add(append([]byte(nil), seed...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		ways := 1 << (data[0] % 5)
		sets := 1 << (data[0] / 5 % 3)
		cfg := LevelConfig{Lines: uint64(ways * sets), Ways: ways}
		got, err := newPrivateLevel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := newRefPrivateLevel(cfg)
		for i, op := range data[1:] {
			addr := privateLevelPool[op&15]
			switch {
			case op>>4 == 15: // 1 in 16 ops invalidates
				got.Invalidate(addr)
				want.invalidate(addr)
			case op == 0xef: // 1 in 256 resets
				got.Reset()
				want.reset()
			default:
				gh, ge, gv := got.access(hashAddr(addr), addr)
				wh, we, wv := want.access(addr)
				// evicted means nothing unless evictedValid (the reference
				// leaves a stale tag there after an invalidation).
				if gh != wh || gv != wv || gv && ge != we {
					t.Fatalf("%v, op %d: access(%#x) = (%v, %#x, %v), reference (%v, %#x, %v)",
						cfg, i, addr, gh, ge, gv, wh, we, wv)
				}
			}
			for _, a := range privateLevelPool {
				if got.Contains(a) != want.contains(a) {
					t.Fatalf("%v, op %d: Contains(%#x) = %v, reference %v", cfg, i, a, got.Contains(a), want.contains(a))
				}
			}
		}
	})
}

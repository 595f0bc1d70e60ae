package cache

import (
	"sync"
	"testing"

	"repro/internal/arena"
)

// sealedArena reaches into a Sealed image for its backing arena snapshot, so
// the isolation tests can digest the frozen words directly instead of going
// through a forked cache's behaviour.
func sealedArena(t *testing.T, s Sealed) *arena.Snapshot {
	t.Helper()
	switch v := s.(type) {
	case *zcacheSnapshot:
		return v.snap
	case *setAssocSnapshot:
		return v.snap
	}
	t.Fatalf("unexpected Sealed type %T", s)
	return nil
}

// forkSlab returns a forked cache's copy-on-write arena.
func forkSlab(t *testing.T, c Cache) *arena.Arena {
	t.Helper()
	switch v := c.(type) {
	case *ZCache:
		return v.slab
	case *SetAssoc:
		return v.slab
	}
	t.Fatalf("unexpected Cache type %T", c)
	return nil
}

// snapDigest folds a snapshot's words into one FNV-1a hash.
func snapDigest(s *arena.Snapshot) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < s.Words(); i++ {
		v := s.At(i)
		for b := 0; b < 8; b++ {
			h ^= (v >> (8 * b)) & 0xff
			h *= 1099511628211
		}
	}
	return h
}

// TestForkMutationIsolationArena pins the copy-on-write protocol at the
// storage layer, below the simulator-level fork tests: children forked from a
// sealed image materialise and scribble over every one of their arena chunks
// — concurrently, so -race patrols for any chunk still shared with the parent
// — and the sealed snapshot's digest must not move. A fresh fork afterwards
// must reproduce the snapshot word for word.
func TestForkMutationIsolationArena(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func() (Cache, error)
	}{
		{"zcache", func() (Cache, error) { return New(DefaultZ452(1024, 4)) }},
		{"setassoc", func() (Cache, error) { return NewSetAssoc(1024, 16, ModeVantage, 4) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 4096; i++ {
				c.Access(uint64(i*7+1), PartitionID(i%4), uint64(i))
			}
			sealed := c.Seal()
			snap := sealedArena(t, sealed)
			nonzero := false
			for i := 0; i < snap.Words() && !nonzero; i++ {
				nonzero = snap.At(i) != 0
			}
			if !nonzero {
				t.Fatal("sealed snapshot is all zero; the population loop did nothing")
			}
			before := snapDigest(snap)

			var wg sync.WaitGroup
			for i := 0; i < 2; i++ {
				slab := forkSlab(t, sealed.Fork())
				wg.Add(1)
				go func(k uint64) {
					defer wg.Done()
					slab.MaterializeAll()
					data := slab.Data()
					for j := range data {
						data[j] ^= 0x9e3779b97f4a7c15 * k
					}
				}(uint64(i + 1))
			}
			wg.Wait()
			if got := snapDigest(snap); got != before {
				t.Fatalf("snapshot digest moved from %#x to %#x after children mutated their chunks", before, got)
			}

			fresh := forkSlab(t, sealed.Fork())
			fresh.MaterializeAll()
			for j, v := range fresh.Data() {
				if v != snap.At(j) {
					t.Fatalf("fresh fork word %d = %#x, want snapshot's %#x", j, v, snap.At(j))
				}
			}

			// The sealed parent cache keeps running as a copy-on-write fork;
			// dirtying it must not move the frozen image either.
			for i := 0; i < 4096; i++ {
				c.Access(uint64(i*13+5), PartitionID(i%4), uint64(i))
			}
			if got := snapDigest(snap); got != before {
				t.Fatalf("snapshot digest moved from %#x to %#x after the parent kept running", before, got)
			}
		})
	}
}

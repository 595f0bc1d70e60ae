// Package arena provides contiguous word-slab storage for hot simulator
// state, with chunk-granular copy-on-write snapshots.
//
// An Arena is a flat []uint64 that a component (a cache array, a monitor tag
// store) lays its mutable state out in. While an arena is fully owned its
// readers and writers see a plain slice — zero indirection, zero overhead.
// Seal freezes the current contents into an immutable Snapshot and turns the
// arena into a lazy fork of that snapshot; Snapshot.Fork creates further lazy
// forks. A lazy fork holds a full-size buffer plus a bitmap of which
// fixed-size chunks have been materialised from the snapshot. Callers fault
// chunks in with Ensure / EnsureRange before touching the corresponding
// words; once every chunk is materialised the bitmap is dropped and the arena
// is back on the flat zero-overhead path.
//
// Fork cost is therefore O(len/ChunkWords) bookkeeping — independent of how
// much state the arena holds — and the copy cost of a fork is proportional to
// the chunks it actually dirties, not to the LLC size.
package arena

const (
	// ChunkWords is the copy-on-write granularity in 8-byte words (4 KiB).
	ChunkWords = 512
	chunkShift = 9
)

// Snapshot is an immutable sealed image of an arena's contents. It is safe to
// fork from multiple goroutines concurrently; nothing ever writes it.
type Snapshot struct {
	data []uint64
}

// Words returns the snapshot's length in words.
func (s *Snapshot) Words() int { return len(s.data) }

// At returns the word at index i without forking.
func (s *Snapshot) At(i int) uint64 { return s.data[i] }

// Arena is a word slab, either fully owned (base == nil) or a lazy
// copy-on-write fork of a Snapshot.
type Arena struct {
	data []uint64
	// base is the parent snapshot while chunks remain unmaterialised.
	base *Snapshot
	// present is a bitmap over chunks (nil once fully owned).
	present []uint64
	// left counts chunks not yet materialised.
	left int
}

// New returns a fully owned, zeroed arena of n words.
func New(n int) *Arena { return &Arena{data: make([]uint64, n)} }

// Len returns the arena's size in words.
func (a *Arena) Len() int { return len(a.data) }

// Data returns the backing slice. The slice identity is stable for the
// arena's lifetime: Seal and Ensure never reallocate it, so components may
// hold sub-slices as long as they respect the Ensure protocol.
func (a *Arena) Data() []uint64 { return a.data }

// Pending reports whether any chunks remain unmaterialised (i.e. reads and
// writes still need Ensure calls).
func (a *Arena) Pending() bool { return a.present != nil }

func numChunks(n int) int { return (n + ChunkWords - 1) >> chunkShift }

// Ensure materialises the chunk containing word index i.
func (a *Arena) Ensure(i uint64) {
	if a.present == nil {
		return
	}
	a.ensureChunk(i >> chunkShift)
}

// EnsureRange materialises every chunk overlapping [lo, hi).
func (a *Arena) EnsureRange(lo, hi uint64) {
	if a.present == nil || hi <= lo {
		return
	}
	for c := lo >> chunkShift; c <= (hi-1)>>chunkShift; c++ {
		a.ensureChunk(c)
		if a.present == nil {
			return
		}
	}
}

func (a *Arena) ensureChunk(c uint64) {
	w, bit := c>>6, uint64(1)<<(c&63)
	if a.present[w]&bit != 0 {
		return
	}
	a.present[w] |= bit
	lo := int(c) << chunkShift
	hi := lo + ChunkWords
	if hi > len(a.data) {
		hi = len(a.data)
	}
	copy(a.data[lo:hi], a.base.data[lo:hi])
	a.left--
	if a.left == 0 {
		a.present = nil
		a.base = nil
	}
}

// MaterializeAll faults in every remaining chunk, returning the arena to the
// flat fully-owned path.
func (a *Arena) MaterializeAll() {
	if a.present == nil {
		return
	}
	for c := 0; a.present != nil && c < numChunks(len(a.data)); c++ {
		a.ensureChunk(uint64(c))
	}
}

// Seal freezes the arena's current contents into an immutable Snapshot and
// turns the arena itself into a lazy fork of that snapshot. Sealing an
// untouched fork (no chunks materialised) is O(1): the parent snapshot
// already is the arena's state, so it is returned directly and the arena is
// left unchanged. Otherwise any unmaterialised chunks are back-filled from
// the parent, the current buffer becomes the snapshot, and the arena moves to
// a fresh buffer with every chunk pending.
func (a *Arena) Seal() *Snapshot {
	if a.present != nil && a.left == numChunks(len(a.data)) {
		return a.base
	}
	a.MaterializeAll()
	snap := &Snapshot{data: a.data}
	nc := numChunks(len(snap.data))
	if nc == 0 {
		return snap
	}
	a.data = make([]uint64, len(snap.data))
	a.base = snap
	a.present = make([]uint64, (nc+63)/64)
	a.left = nc
	return snap
}

// Fork returns a new lazy copy-on-write arena over the snapshot.
func (s *Snapshot) Fork() *Arena {
	nc := numChunks(len(s.data))
	if nc == 0 {
		return New(0)
	}
	return &Arena{
		data:    make([]uint64, len(s.data)),
		base:    s,
		present: make([]uint64, (nc+63)/64),
		left:    nc,
	}
}

// Reset detaches any parent snapshot and zeroes the arena in place, reusing
// the existing buffer. Afterwards the arena is fully owned and all-zero —
// the state a fresh New(n) returns — without new allocations.
func (a *Arena) Reset() {
	a.base = nil
	a.present = nil
	a.left = 0
	clear(a.data)
}

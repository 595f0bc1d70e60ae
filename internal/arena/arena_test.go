package arena

import (
	"math/rand"
	"testing"
)

func fill(a *Arena, seed int64) {
	r := rand.New(rand.NewSource(seed))
	d := a.Data()
	for i := range d {
		a.Ensure(uint64(i))
		d[i] = r.Uint64()
	}
}

func words(a *Arena) []uint64 {
	out := make([]uint64, a.Len())
	for i := range out {
		a.Ensure(uint64(i))
		out[i] = a.Data()[i]
	}
	return out
}

func equal(t *testing.T, got, want []uint64, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: word %d = %#x, want %#x", what, i, got[i], want[i])
		}
	}
}

func TestNewIsZeroed(t *testing.T) {
	// Dirty one arena first: however buffers come to be reused, the next
	// New must not see its words.
	fill(New(3*ChunkWords), 1)
	b := New(3 * ChunkWords)
	for i, w := range b.Data() {
		if w != 0 {
			t.Fatalf("word %d = %#x after New, want 0", i, w)
		}
	}
}

func TestSealForkValueTransparency(t *testing.T) {
	const n = 3*ChunkWords + 17 // deliberately not chunk-aligned
	a := New(n)
	fill(a, 2)
	want := append([]uint64(nil), a.Data()...)

	snap := a.Seal()
	if !a.Pending() {
		t.Fatal("arena should be a lazy fork after Seal")
	}
	equal(t, words(a), want, "sealed arena reads back")
	if a.Pending() {
		t.Fatal("arena should be fully owned after touching every word")
	}

	f := snap.Fork()
	equal(t, words(f), want, "fork reads back")
}

func TestForkIsolation(t *testing.T) {
	const n = 2 * ChunkWords
	a := New(n)
	fill(a, 3)
	want := append([]uint64(nil), a.Data()...)
	snap := a.Seal()

	f := snap.Fork()
	for i := 0; i < n; i += 7 {
		f.Ensure(uint64(i))
		f.Data()[i] = ^uint64(i)
	}
	// Parent snapshot and a second fork are untouched.
	for i := range want {
		if snap.At(i) != want[i] {
			t.Fatalf("snapshot word %d changed to %#x", i, snap.At(i))
		}
	}
	equal(t, words(snap.Fork()), want, "second fork")
}

func TestSealUntouchedForkIsParentSnapshot(t *testing.T) {
	a := New(4 * ChunkWords)
	fill(a, 4)
	snap := a.Seal()
	f := snap.Fork()
	if got := f.Seal(); got != snap {
		t.Fatal("sealing an untouched fork must return the parent snapshot")
	}
	// The fork must remain usable afterwards.
	equal(t, words(f), snap.data, "fork after O(1) seal")
}

func TestSealDirtyFork(t *testing.T) {
	a := New(4 * ChunkWords)
	fill(a, 5)
	base := a.Seal()
	f := base.Fork()
	f.Ensure(0)
	f.Data()[0] = 42
	snap2 := f.Seal()
	if snap2 == base {
		t.Fatal("dirty fork must seal to a new snapshot")
	}
	if snap2.At(0) != 42 {
		t.Fatalf("new snapshot word 0 = %d, want 42", snap2.At(0))
	}
	// Untouched words back-filled from the parent.
	for i := 1; i < snap2.Words(); i++ {
		if snap2.At(i) != base.At(i) {
			t.Fatalf("word %d = %#x, want parent's %#x", i, snap2.At(i), base.At(i))
		}
	}
	// The original snapshot is unchanged.
	if base.At(0) == 42 {
		t.Fatal("parent snapshot mutated by child's seal")
	}
}

func TestRepeatedSealIsCheap(t *testing.T) {
	a := New(2 * ChunkWords)
	fill(a, 6)
	s1 := a.Seal()
	s2 := a.Seal()
	if s1 != s2 {
		t.Fatal("re-sealing an untouched arena must reuse the snapshot")
	}
}

func TestEnsureRangeCrossesChunks(t *testing.T) {
	a := New(3 * ChunkWords)
	fill(a, 7)
	want := append([]uint64(nil), a.Data()...)
	f := a.Seal().Fork()
	lo, hi := uint64(ChunkWords-2), uint64(ChunkWords+2)
	f.EnsureRange(lo, hi)
	for i := lo; i < hi; i++ {
		if f.Data()[i] != want[i] {
			t.Fatalf("word %d not materialised by EnsureRange", i)
		}
	}
}

func TestReset(t *testing.T) {
	a := New(2 * ChunkWords)
	fill(a, 8)
	snap := a.Seal()
	f := snap.Fork()
	f.Ensure(0)
	f.Data()[0] = 9
	f.Reset()
	if f.Pending() {
		t.Fatal("reset arena must be fully owned")
	}
	for i, w := range f.Data() {
		if w != 0 {
			t.Fatalf("word %d = %#x after Reset, want 0", i, w)
		}
	}
	if snap.At(0) == 0 {
		t.Fatal("Reset must not touch the parent snapshot")
	}
}

func TestZeroLength(t *testing.T) {
	a := New(0)
	s := a.Seal()
	if s.Words() != 0 {
		t.Fatal("zero-length snapshot")
	}
	f := s.Fork()
	if f.Pending() {
		t.Fatal("zero-length fork must be fully owned")
	}
}

var forkSink *Arena

func BenchmarkFork(b *testing.B) {
	a := New(48 * 1024) // ~ a 16K-line zcache slab
	fill2 := a.Data()
	for i := range fill2 {
		fill2[i] = uint64(i)
	}
	snap := a.Seal()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		forkSink = snap.Fork()
	}
}

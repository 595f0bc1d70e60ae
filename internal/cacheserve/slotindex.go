package cacheserve

import "math/bits"

// slotIndex maps a tenant shard's 64-bit key hashes to slab slots. It is a
// power-of-two table of words probed linearly from a home position. A word
// packs a 32-bit fingerprint above the int32 slot number; the word 0 means
// empty, which is unambiguous because slot 0 is the sentinel and is never
// indexed. The fingerprint is the top half of the key hash mixed with a
// per-cache random seed, and its high bits are the word's home, so the table
// doubles (at 3/4 load) and deletes (by shifting later words of the run back,
// leaving no tombstones) from the words alone. A fingerprint match is
// confirmed against the slot's stored hash, so the index answers exactly what
// a map from hash to slot would.
//
// The seed keeps a client who knows hashKey from aiming keys at one probe
// run: without it, keys sharing their hash's top bits would share one home.
type slotIndex struct {
	words []uint64
	shift uint   // a word's home is word >> shift: 64 - log2(len(words))
	n     int    // occupied words
	seed  uint64 // per-cache, from New
}

// minIndexWords is the table size of an empty index.
const minIndexWords = 8

const slotBits = 1<<32 - 1 // the slot half of a word

func newSlotIndex(seed uint64) slotIndex {
	return slotIndex{words: make([]uint64, minIndexWords), shift: 64 - uint(bits.TrailingZeros(minIndexWords)), seed: seed}
}

// tag returns h's fingerprint in a word's top half (wyhash's multiply-fold
// keyed by the seed).
func (x *slotIndex) tag(h uint64) uint64 {
	hi, lo := bits.Mul64(h^x.seed, 0xa0761d6478bd642f)
	return (hi ^ lo) &^ slotBits
}

// get returns the slot whose stored hash is h, or 0 if there is none.
func (x *slotIndex) get(h uint64, slots []entry) int32 {
	t := x.tag(h)
	mask := uint64(len(x.words) - 1)
	for i := t >> x.shift; ; i = (i + 1) & mask {
		w := x.words[i]
		if w == 0 {
			return 0
		}
		if w&^slotBits == t && slots[w&slotBits].hash == h {
			return int32(w & slotBits)
		}
	}
}

// put indexes slot under hash h, which must not be indexed already.
func (x *slotIndex) put(h uint64, slot int32) {
	if 4*(x.n+1) > 3*len(x.words) {
		x.grow()
	}
	x.place(x.tag(h) | uint64(slot))
	x.n++
}

// place stores w in the first empty word at or after its home.
func (x *slotIndex) place(w uint64) {
	mask := uint64(len(x.words) - 1)
	i := w >> x.shift
	for x.words[i] != 0 {
		i = (i + 1) & mask
	}
	x.words[i] = w
}

// grow doubles the table and re-places every word by its own home bits.
func (x *slotIndex) grow() {
	old := x.words
	x.words = make([]uint64, 2*len(old))
	x.shift--
	for _, w := range old {
		if w != 0 {
			x.place(w)
		}
	}
}

// del removes the word for slot, indexed under hash h. Later words of the
// probe run move back into the hole unless that would put them before their
// home, so every word stays reachable from its home without tombstones.
func (x *slotIndex) del(h uint64, slot int32) {
	w := x.tag(h) | uint64(slot)
	mask := uint64(len(x.words) - 1)
	i := w >> x.shift
	for x.words[i] != w {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; x.words[j] != 0; j = (j + 1) & mask {
		if home := x.words[j] >> x.shift; (j-home)&mask >= (j-i)&mask {
			x.words[i] = x.words[j]
			i = j
		}
	}
	x.words[i] = 0
	x.n--
}

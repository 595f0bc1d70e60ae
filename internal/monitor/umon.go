package monitor

import (
	"fmt"
	"math/bits"
)

// UMON is a utility monitor in the style of Qureshi & Patt's UCP (MICRO 2006),
// as used by the paper: a set-sampled shadow tag directory that measures, for
// each application, the miss curve it would see under LRU at every possible
// allocation of the modelled cache.
//
// The monitor models a cache of ModelLines lines organised as Ways-way LRU
// sets, but only keeps tags for SampleSets of those sets (chosen by address
// hash), so its storage is tiny. Hits are recorded per LRU stack position;
// the miss curve at an allocation of k ways is then
//
//	misses(k) = accesses - sum_{i<k} hits[i]
//
// scaled from the sampled stream to the full stream.
//
// Ubik extends the UMON with snapshots: the de-boosting logic compares the
// misses a request actually suffered against the misses the UMON says it
// would have suffered at the target allocation (Section 5.1.1).
//
// Like the hardware UMONs the paper attaches at the LLC, the monitor samples
// the stream the LLC actually observes: with private L1/L2 levels configured
// the simulator presents only L2 misses (the filtered stream), so the
// resulting miss curves describe LLC allocations for exactly the accesses an
// LLC allocation can affect.
type UMON struct {
	modelLines uint64
	ways       int
	sampleSets int
	totalSets  uint64

	// Shadow tags, two words per tag (addr, valid) in a flat set-major slab:
	// words[2*(set*ways+pos)] holds the address at LRU stack position pos of
	// the set (position 0 is MRU), the adjacent word its valid flag. The flat
	// layout keeps each set's LRU stack contiguous.
	words []uint64
	state UMONSnapshot
}

// UMONSnapshot captures the monitor's counters at a point in time, so that
// windowed statistics (per reconfiguration interval, per request) can be
// computed by subtraction.
type UMONSnapshot struct {
	// TotalAccesses is the number of accesses presented to the monitor
	// (sampled or not).
	TotalAccesses uint64
	// SampledAccesses is the number of accesses that fell in sampled sets.
	SampledAccesses uint64
	// SampledMisses is the number of sampled accesses that missed in the
	// shadow directory.
	SampledMisses uint64
	// HitsAtWay[i] counts sampled hits at LRU stack position i.
	HitsAtWay []uint64
}

func (s UMONSnapshot) clone() UMONSnapshot {
	c := s
	c.HitsAtWay = make([]uint64, len(s.HitsAtWay))
	copy(c.HitsAtWay, s.HitsAtWay)
	return c
}

// NewUMON builds a utility monitor modelling a cache of modelLines lines with
// the given associativity, keeping tags for sampleSets sets.
func NewUMON(modelLines uint64, ways, sampleSets int) (*UMON, error) {
	if modelLines == 0 || ways <= 0 || sampleSets <= 0 {
		return nil, fmt.Errorf("monitor: UMON needs positive modelLines, ways and sampleSets")
	}
	totalSets := modelLines / uint64(ways)
	if totalSets == 0 {
		totalSets = 1
	}
	if uint64(sampleSets) > totalSets {
		sampleSets = int(totalSets)
	}
	u := &UMON{
		modelLines: modelLines,
		ways:       ways,
		sampleSets: sampleSets,
		totalSets:  totalSets,
		words:      make([]uint64, 2*ways*sampleSets),
	}
	u.state.HitsAtWay = make([]uint64, ways)
	return u, nil
}

// Ways returns the monitor's associativity (the number of raw curve points).
func (u *UMON) Ways() int { return u.ways }

// hashAddr mixes the line address for set selection.
func umonHash(addr uint64) uint64 {
	x := addr
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 29
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 32
	return x
}

// Access presents one LLC access to the monitor. It runs on every simulated
// LLC access, so set selection uses a divide-free multiply-shift reduction.
func (u *UMON) Access(addr uint64) {
	u.state.TotalAccesses++
	set, _ := bits.Mul64(umonHash(addr), u.totalSets)
	if set >= uint64(u.sampleSets) {
		return
	}
	u.state.SampledAccesses++
	stride := 2 * u.ways
	base := set * uint64(stride)
	tags := u.words[base : base+uint64(stride)]
	// Search the LRU stack.
	for pos := 0; pos < u.ways; pos++ {
		if tags[2*pos+1] != 0 && tags[2*pos] == addr {
			u.state.HitsAtWay[pos]++
			// Move to MRU: shift positions [0,pos) down one pair.
			copy(tags[2:2*pos+2], tags[0:2*pos])
			tags[0], tags[1] = addr, 1
			return
		}
	}
	// Miss: insert at MRU, evicting the LRU tag.
	u.state.SampledMisses++
	copy(tags[2:], tags[0:stride-2])
	tags[0], tags[1] = addr, 1
}

// Snapshot returns a copy of the monitor's counters.
func (u *UMON) Snapshot() UMONSnapshot { return u.state.clone() }

// Reset returns the monitor to its freshly constructed state in place: tags
// flushed, counters cleared, no new allocations.
func (u *UMON) Reset() {
	clear(u.words)
	u.ResetCounters()
}

// ResetCounters clears the counters but keeps the shadow tags warm (matching
// the paper's observation that UMON tags are not flushed when an application
// goes idle).
func (u *UMON) ResetCounters() {
	u.state.TotalAccesses = 0
	u.state.SampledAccesses = 0
	u.state.SampledMisses = 0
	for i := range u.state.HitsAtWay {
		u.state.HitsAtWay[i] = 0
	}
}

// delta returns counters accumulated since the given snapshot.
func (u *UMON) delta(since UMONSnapshot) UMONSnapshot {
	d := UMONSnapshot{
		TotalAccesses:   u.state.TotalAccesses - since.TotalAccesses,
		SampledAccesses: u.state.SampledAccesses - since.SampledAccesses,
		SampledMisses:   u.state.SampledMisses - since.SampledMisses,
		HitsAtWay:       make([]uint64, u.ways),
	}
	for i := range d.HitsAtWay {
		d.HitsAtWay[i] = u.state.HitsAtWay[i] - since.HitsAtWay[i]
	}
	return d
}

// MissCurve returns the miss curve accumulated since the given snapshot,
// scaled to the full (unsampled) access stream. Pass a zero-valued snapshot to
// get the curve since construction or the last ResetCounters. The returned
// curve has ways+1 points; callers typically Interpolate it to 256 points.
func (u *UMON) MissCurve(since UMONSnapshot) MissCurve {
	d := u.deltaOrAll(since)
	curve := MissCurve{
		TotalLines: u.modelLines,
		Misses:     make([]float64, u.ways+1),
	}
	scale := 1.0
	if d.SampledAccesses > 0 {
		scale = float64(d.TotalAccesses) / float64(d.SampledAccesses)
	}
	curve.Accesses = float64(d.TotalAccesses)
	// With 0 lines every access misses.
	curve.Misses[0] = float64(d.TotalAccesses)
	cumHits := uint64(0)
	for w := 0; w < u.ways; w++ {
		cumHits += d.HitsAtWay[w]
		missesSampled := float64(d.SampledAccesses) - float64(cumHits)
		if missesSampled < 0 {
			missesSampled = 0
		}
		curve.Misses[w+1] = missesSampled * scale
	}
	return curve
}

func (u *UMON) deltaOrAll(since UMONSnapshot) UMONSnapshot {
	if since.HitsAtWay == nil {
		return u.state.clone()
	}
	return u.delta(since)
}

// MissesAtSizeSince estimates how many misses the application would have
// incurred since the snapshot had it run with an allocation of the given
// number of lines. This is the quantity Ubik's accurate de-boosting hardware
// compares against the actual miss count.
func (u *UMON) MissesAtSizeSince(since UMONSnapshot, lines uint64) float64 {
	return u.MissCurve(since).At(lines)
}

// AccessesSince returns the total accesses presented since the snapshot.
func (u *UMON) AccessesSince(since UMONSnapshot) uint64 {
	if since.HitsAtWay == nil {
		return u.state.TotalAccesses
	}
	return u.state.TotalAccesses - since.TotalAccesses
}

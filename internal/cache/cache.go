// Package cache implements the last-level-cache models used by the Ubik
// reproduction: a set-associative array with LRU replacement, a
// skew-associative zcache with a replacement walk, and the two partitioning
// schemes evaluated in the paper — way-partitioning and Vantage.
//
// The caches operate on line addresses (the workload generators and the
// simulator never deal in bytes). Every line carries a small amount of caller
// metadata (the simulator stores the id of the request that last touched the
// line, which is how the Figure 2 reuse breakdown is computed).
package cache

import (
	"fmt"
	"math/bits"
)

// PartitionID identifies a partition. Partition 0..NumPartitions-1 are valid;
// the unpartitioned LRU configuration simply puts every access in partition 0.
type PartitionID int

// AccessResult describes the outcome of a single cache access.
type AccessResult struct {
	// Hit is true when the line was already present.
	Hit bool
	// PrevMeta is the metadata stored on the line by the previous access that
	// touched it. Valid only when Hit is true.
	PrevMeta uint64
	// Evicted is true when the access caused a valid line to be evicted.
	Evicted bool
	// EvictedPartition is the partition that lost a line. Valid when Evicted.
	EvictedPartition PartitionID
	// ForcedEviction is true when the replacement had to victimise a line from
	// a partition that was at or below its target allocation (the situation
	// Vantage on a zcache makes negligibly rare, but which way-partitioning
	// and low-associativity arrays cannot avoid).
	ForcedEviction bool
}

// Cache is the interface shared by all LLC models.
type Cache interface {
	// Access looks up addr on behalf of partition part, inserting it on a
	// miss. meta is stored on the line and returned by the next access that
	// hits it.
	Access(addr uint64, part PartitionID, meta uint64) AccessResult
	// SetPartitionTarget sets the target allocation of a partition in lines.
	SetPartitionTarget(part PartitionID, lines uint64)
	// PartitionTarget returns a partition's target allocation in lines.
	PartitionTarget(part PartitionID) uint64
	// PartitionSize returns a partition's current occupancy in lines.
	PartitionSize(part PartitionID) uint64
	// NumLines returns the total capacity in lines.
	NumLines() uint64
	// NumPartitions returns the number of partitions.
	NumPartitions() int
	// Stats returns cumulative access statistics.
	Stats() Stats
	// PartitionStats returns cumulative statistics for one partition.
	PartitionStats(part PartitionID) PartitionStats
	// ResetStats clears all cumulative statistics (occupancy is preserved).
	ResetStats()
	// Reset returns the cache to its freshly constructed state without new
	// allocations: contents, partition state and statistics are cleared in
	// place.
	Reset()
}

// Stats holds cumulative whole-cache statistics.
type Stats struct {
	Accesses        uint64
	Hits            uint64
	Misses          uint64
	Evictions       uint64
	ForcedEvictions uint64
}

// HitRate returns hits/accesses, or 0 when there have been no accesses.
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// PartitionStats holds cumulative per-partition statistics.
type PartitionStats struct {
	Accesses  uint64
	Hits      uint64
	Misses    uint64
	Evictions uint64 // lines this partition lost (to anyone)
}

// MissRate returns misses/accesses, or 0 when there have been no accesses.
func (s PartitionStats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// ReplacementMode selects how victims are chosen.
type ReplacementMode int

const (
	// ModeLRU is unpartitioned LRU: partition targets are ignored and the
	// least-recently-used candidate is evicted.
	ModeLRU ReplacementMode = iota
	// ModeVantage enforces partition targets by preferentially victimising
	// lines from partitions above their target allocation; a partition below
	// its target is (almost) never victimised, which is the property Ubik's
	// transient analysis relies on.
	ModeVantage
	// ModeWayPartition restricts each partition's insertions to its assigned
	// ways (set-associative arrays only).
	ModeWayPartition
)

// String implements fmt.Stringer.
func (m ReplacementMode) String() string {
	switch m {
	case ModeLRU:
		return "LRU"
	case ModeVantage:
		return "Vantage"
	case ModeWayPartition:
		return "WayPartition"
	default:
		return fmt.Sprintf("ReplacementMode(%d)", int(m))
	}
}

// partitionTable tracks per-partition targets, sizes, and statistics.
type partitionTable struct {
	targets []uint64
	sizes   []uint64
	stats   []PartitionStats
}

func newPartitionTable(n int) *partitionTable {
	return &partitionTable{
		targets: make([]uint64, n),
		sizes:   make([]uint64, n),
		stats:   make([]PartitionStats, n),
	}
}

// reset clears the table to its freshly constructed state in place.
func (t *partitionTable) reset() {
	clear(t.targets)
	clear(t.sizes)
	clear(t.stats)
}

func (t *partitionTable) valid(p PartitionID) bool {
	return p >= 0 && int(p) < len(t.targets)
}

// overQuota returns how many lines partition p holds beyond its target
// (0 if at or below target). inserting is the partition about to insert a new
// line; its occupancy is counted as one larger so that, at steady state, a
// partition sitting exactly at its target replaces its own lines instead of
// forcing an eviction from someone else.
func (t *partitionTable) overQuota(p, inserting PartitionID) uint64 {
	if !t.valid(p) {
		return 0
	}
	size := t.sizes[p]
	if p == inserting {
		size++
	}
	if size > t.targets[p] {
		return size - t.targets[p]
	}
	return 0
}

// hashAddr mixes a line address into a well-distributed 64-bit value. The
// synthetic address streams use highly structured addresses (per-app slabs,
// per-layer regions), so index bits must come from a real mixer.
func hashAddr(addr uint64) uint64 {
	x := addr
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// reduceRange maps a well-mixed 64-bit hash uniformly onto [0, n) without a
// divide (Lemire's multiply-shift reduction). The set counts in play are
// rarely powers of two, so a plain mask is not available, and a 64-bit modulo
// on the access path costs more than the rest of the index computation
// combined.
func reduceRange(hash, n uint64) uint64 {
	hi, _ := bits.Mul64(hash, n)
	return hi
}

// baseHash is the shared full-strength address mix the zcache folds through
// its per-way multipliers: one invocation serves every way of a probe.
func baseHash(addr uint64) uint64 { return hashAddr(addr) }

// splitmix64 is the standard seed mixer, used to derive per-way index
// multipliers at construction.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Package workload provides the synthetic workload models used by the Ubik
// reproduction: latency-critical server applications (stand-ins for xapian,
// masstree, moses, shore-mt and specjbb), batch applications modelled after
// the SPEC CPU2006 classes used in the paper, request arrival processes, and
// the layered address-stream generators that drive the cache simulator.
//
// Everything is deterministic given a seed so that runs are reproducible and
// schemes can be compared on identical request sequences.
package workload

import "math/rand"

// splitmix64 is a small, fast PRNG used as the seed expander and as the
// rand.Source64 backing all workload randomness.
type splitmix64 struct {
	state uint64
}

// NewSource returns a deterministic rand.Source64 seeded with seed.
func NewSource(seed uint64) rand.Source64 {
	return &splitmix64{state: seed}
}

// NewRand returns a *rand.Rand backed by a splitmix64 source.
func NewRand(seed uint64) *rand.Rand {
	return rand.New(NewSource(seed))
}

// Rand is a *rand.Rand whose underlying splitmix64 source can be duplicated,
// so any object holding one can be checkpointed mid-stream: the clone
// continues the identical draw sequence while leaving the original
// untouched. All checkpointable workload state (address streams, service
// demand draws, arrival processes, MMPP dwells) draws through a Rand; the
// non-cloneable NewRand stays for one-shot consumers (mix sampling, balancer
// seeds, profile jitter).
type Rand struct {
	*rand.Rand
	src *splitmix64
}

// NewClonableRand returns a deterministic, cloneable RNG seeded with seed. It
// produces exactly the sequence NewRand(seed) produces.
func NewClonableRand(seed uint64) *Rand {
	src := &splitmix64{state: seed}
	return &Rand{Rand: rand.New(src), src: src}
}

// Clone returns an independent copy that continues the identical sequence.
// (math/rand.Rand buffers state only for Read, which the workloads never
// call, so duplicating the source is sufficient.)
func (r *Rand) Clone() *Rand {
	src := &splitmix64{state: r.src.state}
	return &Rand{Rand: rand.New(src), src: src}
}

func (s *splitmix64) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 implements rand.Source64.
func (s *splitmix64) Uint64() uint64 { return s.next() }

// Int63 implements rand.Source.
func (s *splitmix64) Int63() int64 { return int64(s.next() >> 1) }

// Seed implements rand.Source.
func (s *splitmix64) Seed(seed int64) { s.state = uint64(seed) }

// SplitSeed derives a child seed from a parent seed and a stream index. It is
// used to give every application instance, arrival process and run its own
// independent random stream while keeping the whole experiment reproducible
// from a single top-level seed.
func SplitSeed(parent uint64, stream uint64) uint64 {
	s := splitmix64{state: parent ^ (stream * 0x9e3779b97f4a7c15)}
	s.next()
	return s.next()
}

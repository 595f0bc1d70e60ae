package monitor

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// SampledUMON is a concurrency-safe, stream-sampling front end to a UMON, for
// plants whose access stream is produced by many goroutines at once (the live
// cache service) rather than by a single-threaded simulator loop.
//
// The simulator feeds its UMONs every LLC access from one goroutine; a live
// service cannot afford a lock on every operation, so only every k-th
// presented access (k = round(1/rate)) is forwarded into the underlying
// monitor, and the mutex is taken only for those. Two entry points count the
// stride:
//
//   - Access counts it itself: its unsampled fast path is one atomic add on a
//     stride counter shared by every goroutine presenting to this feed, so
//     under concurrency the add contends and its cache line moves between
//     cores. It suits single-stream callers.
//   - Forward leaves the count to the caller. The live cache (cacheserve)
//     counts the stride per tenant shard, under the shard lock its op
//     already holds, and calls Forward(addr, k) once per block of k of that
//     shard's ops, so unsampled ops write nothing another shard touches.
//
// Stride sampling (rather than hashing the address) keeps hot keys in the
// sampled stream in proportion to their true access frequency — address-hash
// sampling would either always or never see a given hot key, skewing the miss
// curve of skewed workloads. With Access under concurrency, *which* accesses
// land on the stride depends on goroutine interleaving; with per-shard
// counting it depends only on each shard's own op order (the simulator path
// is unaffected: it feeds UMONs directly).
//
// MissCurve scales the sampled curve by presented/fed, so its Accesses and
// Misses estimate the full stream, comparable across tenants sampled at
// different rates.
type SampledUMON struct {
	u      *UMON
	stride uint64
	// presented counts every access offered to the feed; accesses where
	// presented % stride == 0 are forwarded to the UMON.
	presented atomic.Uint64
	mu        sync.Mutex
}

// NewSampledUMON wraps the monitor with a sampling feed forwarding roughly
// the given fraction of presented accesses (clamped to (0, 1]; rate >= 1
// forwards everything).
func NewSampledUMON(u *UMON, rate float64) (*SampledUMON, error) {
	if u == nil {
		return nil, fmt.Errorf("monitor: SampledUMON needs a UMON")
	}
	if rate <= 0 {
		return nil, fmt.Errorf("monitor: sampling rate must be > 0, got %v", rate)
	}
	stride := uint64(1)
	if rate < 1 {
		stride = uint64(1/rate + 0.5)
		if stride < 1 {
			stride = 1
		}
	}
	return &SampledUMON{u: u, stride: stride}, nil
}

// Stride returns the sampling stride k (one in k accesses is forwarded).
func (s *SampledUMON) Stride() uint64 { return s.stride }

// Presented returns how many accesses have been offered to the feed.
func (s *SampledUMON) Presented() uint64 { return s.presented.Load() }

// Fed returns how many of the presented accesses were forwarded into the
// wrapped monitor (≈ Presented/Stride; exposed so instrumentation can report
// both sides of the sampling ratio).
func (s *SampledUMON) Fed() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.u.AccessesSince(UMONSnapshot{})
}

// Access offers one access (identified by its hashed line address) to the
// feed. Safe for concurrent use.
func (s *SampledUMON) Access(addr uint64) {
	n := s.presented.Add(1)
	if n%s.stride != 0 {
		return
	}
	s.mu.Lock()
	s.u.Access(addr)
	s.mu.Unlock()
}

// Forward feeds addr into the wrapped monitor as the one sample standing for
// n presented accesses, for callers that count the stride themselves (n is
// normally Stride()). presented and fed move together under the feed mutex,
// so a window of Forward calls scales by exactly n. Safe for concurrent use.
func (s *SampledUMON) Forward(addr, n uint64) {
	s.mu.Lock()
	s.presented.Add(n)
	s.u.Access(addr)
	s.mu.Unlock()
}

// SampledSnapshot pairs the wrapped monitor's counters with the feed's
// presented count at the same instant, so a windowed curve can be scaled by
// its own window's presented/fed delta rather than the lifetime ratio.
type SampledSnapshot struct {
	UMON      UMONSnapshot
	Presented uint64
}

// Snapshot returns the underlying monitor's counters, for windowed curve
// queries via MissCurve.
func (s *SampledUMON) Snapshot() UMONSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.u.Snapshot()
}

// MissCurve returns the miss curve accumulated since the snapshot, scaled
// from the sampled stride stream up to the full presented stream. Pass a
// zero-valued snapshot for the curve since construction.
func (s *SampledUMON) MissCurve(since SampledSnapshot) MissCurve {
	curve, _ := s.CurveAndSnapshot(since)
	return curve
}

// CurveAndSnapshot returns the miss curve accumulated since the given
// snapshot together with the snapshot the curve runs up to, read under one
// lock so an epoch-driven caller loses no accesses between its curve
// windows.
func (s *SampledUMON) CurveAndSnapshot(since SampledSnapshot) (MissCurve, SampledSnapshot) {
	s.mu.Lock()
	// presented is read while holding the feed lock: every forwarded access
	// bumps presented before or under the lock, so presented >= fed here and
	// a concurrent Access or Forward cannot make the window see more fed
	// than presented.
	presented := s.presented.Load()
	curve := s.u.MissCurve(since.UMON)
	snap := SampledSnapshot{UMON: s.u.Snapshot(), Presented: presented}
	fed := s.u.AccessesSince(since.UMON)
	s.mu.Unlock()
	// The snapshot delta is a window of the fed stream; project it onto the
	// presented stream by this window's own presented/fed delta (exact up to
	// stride alignment at the window edges, even when earlier windows ran at
	// a different effective rate).
	var presWindow uint64
	if presented > since.Presented {
		presWindow = presented - since.Presented
	}
	if fed > 0 && presWindow > fed {
		curve = curve.Scale(float64(presWindow) / float64(fed))
	}
	return curve, snap
}

// Reset clears the underlying monitor and the presented counter. Not safe
// against concurrent Access or Forward; quiesce writers first. A caller
// counting its own stride keeps its countdowns, so its first forward after
// Reset may stand for accesses presented before it.
func (s *SampledUMON) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.u.Reset()
	s.presented.Store(0)
}

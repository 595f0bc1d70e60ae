package workload

import (
	"fmt"
	"math/rand"
)

// Layer describes one region of an application's data along with how it is
// accessed. The layered model is the knob that shapes an application's miss
// curve and its cross-request reuse:
//
//   - A persistent layer that fits in the allocated cache space produces hits
//     whose reuse spans requests (the inertia the paper studies).
//   - A per-request layer produces intra-request reuse only.
//   - Streaming accesses (see Profile.StreamWeight) never hit.
type Layer struct {
	// Name identifies the layer in diagnostics (e.g. "index", "table", "heap").
	Name string
	// Lines is the layer's footprint in cache lines.
	Lines uint64
	// Weight is the fraction of LLC accesses directed at this layer, relative
	// to the sum of all layer weights plus the streaming weight.
	Weight float64
	// ZipfS, when > 1, skews accesses within the layer with a Zipf(s)
	// popularity distribution; 0 (or <=1) means uniform.
	ZipfS float64
	// PerRequest marks data that is private to each request: its addresses are
	// remapped every request, so it never produces cross-request reuse.
	PerRequest bool
}

// Validate reports configuration errors in the layer.
func (l Layer) Validate() error {
	if l.Lines == 0 {
		return fmt.Errorf("workload: layer %q has zero lines", l.Name)
	}
	if l.Weight < 0 {
		return fmt.Errorf("workload: layer %q has negative weight", l.Name)
	}
	return nil
}

// Address-space layout: each application instance owns a disjoint slab of the
// 64-bit line-address space, each layer owns a disjoint region inside it, and
// per-request layers advance through their region so that different requests
// touch different lines.
const (
	appAddressBits   = 44 // per-app slab: 2^44 line addresses
	layerAddressBits = 38 // per-layer region within the slab
)

type layerState struct {
	cfg  Layer
	base uint64
	zipf *rand.Zipf
}

// Stream generates the LLC line-address stream for one application instance.
type Stream struct {
	rng        *rand.Rand
	layers     []layerState
	cumWeights []float64 // cumulative layer weights; last entry adds streaming
	totalW     float64
	streamW    float64
	streamBase uint64
	streamNext uint64
	requestID  uint64
}

// NewStream builds an address stream for application slot appIndex (its
// position in the mix, used to keep address spaces disjoint), with the given
// layers and streaming weight.
func NewStream(appIndex int, layers []Layer, streamWeight float64, rng *rand.Rand) (*Stream, error) {
	if streamWeight < 0 {
		return nil, fmt.Errorf("workload: negative stream weight %v", streamWeight)
	}
	appBase := uint64(appIndex+1) << appAddressBits
	s := &Stream{rng: rng, streamW: streamWeight}
	total := streamWeight
	for i, l := range layers {
		if err := l.Validate(); err != nil {
			return nil, err
		}
		ls := layerState{cfg: l, base: appBase + uint64(i+1)<<layerAddressBits}
		if l.ZipfS > 1 && l.Lines > 1 {
			ls.zipf = rand.NewZipf(rng, l.ZipfS, 1, l.Lines-1)
		}
		s.layers = append(s.layers, ls)
		total += l.Weight
		s.cumWeights = append(s.cumWeights, total-streamWeight)
	}
	if total <= 0 {
		return nil, fmt.Errorf("workload: stream has no positive access weight")
	}
	s.totalW = total
	s.streamBase = appBase + uint64(len(layers)+1)<<layerAddressBits
	return s, nil
}

// BeginRequest tells the stream a new request is starting; per-request layers
// remap so the new request's private data does not alias the previous one's.
func (s *Stream) BeginRequest() { s.requestID++ }

// RequestID returns the current request sequence number.
func (s *Stream) RequestID() uint64 { return s.requestID }

// Next returns the next line address in the stream.
func (s *Stream) Next() uint64 {
	x := s.rng.Float64() * s.totalW
	for i := range s.layers {
		if x < s.cumWeights[i] {
			return s.layerAddress(&s.layers[i])
		}
	}
	// Streaming access: sequential, never reused.
	addr := s.streamBase + s.streamNext
	s.streamNext++
	return addr
}

func (s *Stream) layerAddress(ls *layerState) uint64 {
	var off uint64
	if ls.zipf != nil {
		off = ls.zipf.Uint64()
	} else {
		off = uint64(s.rng.Int63n(int64(ls.cfg.Lines)))
	}
	if ls.cfg.PerRequest {
		// Shift the region every request; wrap far enough out that reuse
		// across nearby requests is impossible but the address space stays
		// bounded.
		span := uint64(1) << (layerAddressBits - 1)
		shift := (s.requestID * ls.cfg.Lines) % span
		return ls.base + shift + off
	}
	return ls.base + off
}

package workload

import (
	"fmt"
	"math/rand"
	"sort"
)

// Model units: the reproduction runs at a reduced scale so that the full
// experiment suite completes quickly. One "model MB" of cache is LinesPerMB
// cache lines; the default value stands in for the paper's 2 MB-per-core LLC
// banks (Table 2). All footprints below are expressed in model lines and all
// service demands in model instructions; see DESIGN.md §4 for the scaling
// argument (the key invariant is the ratio of partition size to misses per
// tail request, which determines how much headroom Ubik's boosting has).
const (
	// LinesPerMB is the number of cache lines standing in for 1 MB.
	LinesPerMB = 512
)

// LCProfile describes a latency-critical application: its LLC intensity, its
// core-timing parameters, its data layout (which shapes its miss curve and
// cross-request reuse), and its per-request service-demand distribution.
type LCProfile struct {
	// Name of the application this profile stands in for.
	Name string
	// APKI is LLC accesses per thousand instructions (Figure 2 of the paper).
	APKI float64
	// BaseCPI is the cycles per instruction when every LLC access hits.
	BaseCPI float64
	// MLP is the average number of overlapped long misses an out-of-order core
	// sustains; the effective miss penalty on an OOO core is latency/MLP.
	MLP float64
	// Layers describe the application's data regions.
	Layers []Layer
	// StreamWeight is the fraction of accesses that stream through memory and
	// never hit (compulsory misses).
	StreamWeight float64
	// Service is the per-request service-demand distribution in instructions.
	Service ServiceDist
	// Requests is the default number of measured requests per run (a scaled
	// version of the paper's Table 1 request counts).
	Requests int
	// WarmupRequests are served before measurement starts.
	WarmupRequests int
	// TargetMB is the per-app target allocation used by StaticLC/OnOff/Ubik,
	// i.e. the "2 MB" private-LLC-equivalent of the paper.
	TargetMB float64
}

// TargetLines returns the target allocation in model lines.
func (p LCProfile) TargetLines() uint64 {
	return uint64(p.TargetMB * LinesPerMB)
}

// Validate reports configuration problems in the profile.
func (p LCProfile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("workload: LC profile with empty name")
	}
	if p.APKI <= 0 || p.BaseCPI <= 0 || p.MLP <= 0 {
		return fmt.Errorf("workload: LC profile %q needs positive APKI, BaseCPI and MLP", p.Name)
	}
	if p.Service == nil {
		return fmt.Errorf("workload: LC profile %q has no service distribution", p.Name)
	}
	if p.Requests <= 0 {
		return fmt.Errorf("workload: LC profile %q has no requests", p.Name)
	}
	for _, l := range p.Layers {
		if err := l.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// lcProfiles holds the built-in latency-critical application models,
// parameterised from the paper's characterization (Table 1, Figure 1, Figure 2).
var lcProfiles = map[string]LCProfile{
	// xapian: web search leaf node. Very low LLC intensity (0.1 APKI), small
	// index working set reused across queries, long-tailed service-time
	// distribution (Figure 1b).
	"xapian": {
		Name: "xapian", APKI: 0.1, BaseCPI: 0.65, MLP: 1.5,
		Layers: []Layer{
			{Name: "index-hot", Lines: 500, Weight: 0.70},
			{Name: "query-temp", Lines: 150, Weight: 0.15, PerRequest: true},
		},
		StreamWeight: 0.15,
		Service:      LogNormal{Median: 120_000, Sigma: 0.8, Cap: 1_200_000},
		Requests:     300, WarmupRequests: 30, TargetMB: 2,
	},
	// masstree: in-memory key-value store. Moderate LLC intensity, a hot tree
	// index reused broadly across requests plus a huge table whose accesses
	// mostly miss, near-constant service times, high MLP.
	"masstree": {
		Name: "masstree", APKI: 8.8, BaseCPI: 0.70, MLP: 4.0,
		Layers: []Layer{
			{Name: "tree-index", Lines: 800, Weight: 0.40},
			{Name: "table", Lines: 30_000, Weight: 0.35, ZipfS: 1.05},
			{Name: "request-buf", Lines: 60, Weight: 0.15, PerRequest: true},
		},
		StreamWeight: 0.10,
		Service:      Uniform{Min: 16_000, Max: 22_000},
		Requests:     450, WarmupRequests: 45, TargetMB: 2,
	},
	// moses: statistical machine translation. Very memory-intensive, little
	// reuse at 2 MB but a phrase-table working set that starts fitting around
	// 4 MB, near-constant (long) service times.
	"moses": {
		Name: "moses", APKI: 25.8, BaseCPI: 0.75, MLP: 2.5,
		Layers: []Layer{
			{Name: "phrase-table", Lines: 2200, Weight: 0.30},
			{Name: "hypotheses", Lines: 150, Weight: 0.15, PerRequest: true},
		},
		StreamWeight: 0.55,
		Service:      Uniform{Min: 500_000, Max: 700_000},
		Requests:     60, WarmupRequests: 8, TargetMB: 2,
	},
	// shore-mt: OLTP (TPC-C). Broad cross-request reuse in the buffer pool,
	// multi-modal service times from the TPC-C transaction mix.
	"shore": {
		Name: "shore", APKI: 5.7, BaseCPI: 0.80, MLP: 2.0,
		Layers: []Layer{
			{Name: "bufferpool-hot", Lines: 800, Weight: 0.40},
			{Name: "bufferpool-warm", Lines: 2800, Weight: 0.20},
			{Name: "log-tx", Lines: 120, Weight: 0.25, PerRequest: true},
		},
		StreamWeight: 0.15,
		Service: MultiModal{Modes: []Mode{
			{Weight: 0.50, Dist: Uniform{Min: 90_000, Max: 150_000}},
			{Weight: 0.35, Dist: Uniform{Min: 200_000, Max: 320_000}},
			{Weight: 0.15, Dist: Uniform{Min: 400_000, Max: 650_000}},
		}},
		Requests: 375, WarmupRequests: 40, TargetMB: 2,
	},
	// specjbb: middle-tier business logic. Memory-intensive with broad
	// cross-request reuse over the warehouse data, multi-modal service times.
	"specjbb": {
		Name: "specjbb", APKI: 16.3, BaseCPI: 0.70, MLP: 2.5,
		Layers: []Layer{
			{Name: "warehouse-hot", Lines: 900, Weight: 0.45},
			{Name: "warehouse-warm", Lines: 3000, Weight: 0.15},
			{Name: "objects", Lines: 150, Weight: 0.25, PerRequest: true},
		},
		StreamWeight: 0.15,
		Service: MultiModal{Modes: []Mode{
			{Weight: 0.60, Dist: Uniform{Min: 30_000, Max: 60_000}},
			{Weight: 0.30, Dist: Uniform{Min: 90_000, Max: 150_000}},
			{Weight: 0.10, Dist: Uniform{Min: 180_000, Max: 280_000}},
		}},
		Requests: 800, WarmupRequests: 80, TargetMB: 2,
	},
}

// LCNames returns the names of all built-in latency-critical profiles in a
// stable order (the order used throughout the paper's figures).
func LCNames() []string {
	return []string{"xapian", "masstree", "moses", "shore", "specjbb"}
}

// LCByName returns the built-in profile with the given name.
func LCByName(name string) (LCProfile, error) {
	p, ok := lcProfiles[name]
	if !ok {
		known := LCNames()
		sort.Strings(known)
		return LCProfile{}, fmt.Errorf("workload: unknown latency-critical profile %q (known: %v)", name, known)
	}
	return p, nil
}

// AllLCProfiles returns all built-in latency-critical profiles in stable order.
func AllLCProfiles() []LCProfile {
	out := make([]LCProfile, 0, len(lcProfiles))
	for _, n := range LCNames() {
		out = append(out, lcProfiles[n])
	}
	return out
}

// LCApp is an instantiated latency-critical application: a profile bound to an
// address stream and a private random stream for service-demand draws.
type LCApp struct {
	Profile LCProfile
	stream  *Stream
	rng     *rand.Rand
}

// NewLCApp instantiates profile for mix slot appIndex with the given seed.
func NewLCApp(profile LCProfile, appIndex int, seed uint64) (*LCApp, error) {
	if err := profile.Validate(); err != nil {
		return nil, err
	}
	addrRng := NewRand(SplitSeed(seed, 1))
	st, err := NewStream(appIndex, profile.Layers, profile.StreamWeight, addrRng)
	if err != nil {
		return nil, err
	}
	return &LCApp{
		Profile: profile,
		stream:  st,
		rng:     NewRand(SplitSeed(seed, 2)),
	}, nil
}

// Stream returns the application's address stream.
func (a *LCApp) Stream() *Stream { return a.stream }

// NextServiceDemand draws the next request's service demand in instructions.
func (a *LCApp) NextServiceDemand() uint64 { return a.Profile.Service.Sample(a.rng) }

// InstructionsPerAccess returns the average number of instructions between
// consecutive LLC accesses.
func (a *LCApp) InstructionsPerAccess() float64 { return 1000 / a.Profile.APKI }

// CyclesPerAccessNoMiss returns c, the average cycles between LLC accesses if
// every access hits (the quantity Ubik's transient model calls c).
func (a *LCApp) CyclesPerAccessNoMiss() float64 {
	return a.Profile.BaseCPI * a.InstructionsPerAccess()
}

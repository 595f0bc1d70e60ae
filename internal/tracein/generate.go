package tracein

import (
	"fmt"
	"math/rand"

	"repro/internal/workload"
)

// Gen names a derived-trace generator.
type Gen string

// Generators. Each is fully deterministic in the GenSpec, so CI regenerates
// traces on demand instead of checking in fixtures.
const (
	// GenZipf draws keys from a Zipf(s) popularity distribution.
	GenZipf Gen = "zipf"
	// GenScan sweeps each app's key space sequentially.
	GenScan Gen = "scan"
	// GenPhase shifts each app through Phases disjoint working sets — the
	// phase-change pattern that defeats capacity planning from stale curves.
	GenPhase Gen = "phase"
	// GenMixed alternates per app: even app columns draw zipf, odd ones scan.
	GenMixed Gen = "mixed"
)

// ParseGen converts a generator name into a Gen.
func ParseGen(s string) (Gen, error) {
	switch g := Gen(s); g {
	case GenZipf, GenScan, GenPhase, GenMixed:
		return g, nil
	default:
		return "", fmt.Errorf("tracein: unknown generator %q (want zipf, scan, phase or mixed)", s)
	}
}

// GenSpec parameterises a derived trace. The zero value of an optional field
// selects its default (see withDefaults).
type GenSpec struct {
	// Kind selects mem or kv records.
	Kind Kind
	// Gen selects the access pattern.
	Gen Gen
	// Records is the trace length.
	Records int
	// Apps is the number of app columns (mem) or tenants (kv); records are
	// interleaved round-robin across them. Default 1.
	Apps int
	// Keys is the per-app key-space size. Default 65536.
	Keys uint64
	// ZipfS is the Zipf skew for zipf/mixed/phase draws. Default 1.1.
	ZipfS float64
	// SetFrac is the fraction of kv records that are sets. Default 0.1.
	SetFrac float64
	// ValueSize is the value size of generated kv sets. Default 128.
	ValueSize uint32
	// Phases is how many disjoint working sets GenPhase walks through.
	// Default 4.
	Phases int
	// MeanGap is the mean cycle gap between consecutive records. Default 100.
	MeanGap uint64
	// Seed drives every random draw.
	Seed uint64
}

func (g GenSpec) withDefaults() GenSpec {
	if g.Apps == 0 {
		g.Apps = 1
	}
	if g.Keys == 0 {
		g.Keys = 65536
	}
	if g.ZipfS == 0 {
		g.ZipfS = 1.1
	}
	if g.SetFrac == 0 {
		g.SetFrac = 0.1
	}
	if g.ValueSize == 0 {
		g.ValueSize = 128
	}
	if g.Phases == 0 {
		g.Phases = 4
	}
	if g.MeanGap == 0 {
		g.MeanGap = 100
	}
	return g
}

// Validate reports configuration problems in the spec (after defaulting).
func (g GenSpec) Validate() error {
	g = g.withDefaults()
	if g.Kind != KindMem && g.Kind != KindKV {
		return fmt.Errorf("tracein: generator needs kind mem or kv")
	}
	if _, err := ParseGen(string(g.Gen)); err != nil {
		return err
	}
	if g.Records < 1 {
		return fmt.Errorf("tracein: generator needs at least 1 record, got %d", g.Records)
	}
	if g.Apps < 1 || g.Apps > 1<<16 {
		return fmt.Errorf("tracein: generator app count %d out of range [1, 65536]", g.Apps)
	}
	if g.Keys < 2 {
		return fmt.Errorf("tracein: generator key space %d too small (want >= 2 keys per app)", g.Keys)
	}
	if g.ZipfS <= 1 {
		return fmt.Errorf("tracein: zipf skew must be > 1, got %v", g.ZipfS)
	}
	if g.SetFrac < 0 || g.SetFrac > 1 {
		return fmt.Errorf("tracein: set fraction %v out of range [0, 1]", g.SetFrac)
	}
	if g.ValueSize > MaxValueSize {
		return fmt.Errorf("tracein: value size %d exceeds the %d-byte format limit", g.ValueSize, MaxValueSize)
	}
	if g.Phases < 1 {
		return fmt.Errorf("tracein: phase count must be >= 1, got %d", g.Phases)
	}
	if g.Records < g.Apps {
		return fmt.Errorf("tracein: %d records cannot cover %d apps (every app column needs at least one record)", g.Records, g.Apps)
	}
	return nil
}

// memAppBase returns the disjoint per-app address slab a mem generator emits
// into, matching the synthetic workload layout (each app owns a 2^44-line
// slab), so replayed and synthetic apps in one mix can never alias.
func memAppBase(app int) uint64 { return uint64(app+1) << 44 }

// appGen is the per-app draw state: one RNG per app column so the pattern of
// one column is independent of how many others the trace interleaves.
type appGen struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	scan uint64
}

// Generate materialises the derived records for spec.
func Generate(spec GenSpec) ([]Record, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	g := spec.withDefaults()

	gens := make([]appGen, g.Apps)
	for a := range gens {
		rng := workload.NewRand(workload.SplitSeed(g.Seed, uint64(a+1)))
		gens[a] = appGen{rng: rng, zipf: rand.NewZipf(rng, g.ZipfS, 1, g.Keys-1)}
	}
	// A separate RNG times records and draws kv op mixes, so the key pattern
	// of an app column does not depend on the trace's op/timing draws.
	meta := workload.NewRand(workload.SplitSeed(g.Seed, 0))

	zipfDraw := func(ag *appGen) uint64 { return ag.zipf.Uint64() }
	scanDraw := func(ag *appGen) uint64 {
		k := ag.scan
		ag.scan = (ag.scan + 1) % g.Keys
		return k
	}
	phaseSpan := (g.Keys + uint64(g.Phases) - 1) / uint64(g.Phases)

	recs := make([]Record, g.Records)
	var cycle uint64
	for i := range recs {
		app := i % g.Apps
		ag := &gens[app]

		var key uint64
		switch g.Gen {
		case GenZipf:
			key = zipfDraw(ag)
		case GenScan:
			key = scanDraw(ag)
		case GenPhase:
			// Phase p confines draws to its own slice of the key space; the
			// working set shifts abruptly at each phase boundary.
			p := uint64(i) * uint64(g.Phases) / uint64(g.Records)
			lo := p * phaseSpan
			hi := lo + phaseSpan
			if hi > g.Keys {
				hi = g.Keys
			}
			key = lo + uint64(ag.rng.Int63n(int64(hi-lo)))
		case GenMixed:
			if app%2 == 0 {
				key = zipfDraw(ag)
			} else {
				key = scanDraw(ag)
			}
		}

		r := Record{Cycle: cycle, App: uint32(app)}
		switch g.Kind {
		case KindMem:
			r.Key = memAppBase(app) + key
		case KindKV:
			r.Key = key
			if meta.Float64() < g.SetFrac {
				r.Op = OpSet
				r.Size = g.ValueSize
			} else {
				r.Op = OpGet
			}
		}
		recs[i] = r
		cycle += 1 + uint64(meta.Int63n(int64(2*g.MeanGap-1)))
	}
	return recs, nil
}

// GenerateTrace materialises spec as an in-memory trace.
func GenerateTrace(spec GenSpec) (*Trace, error) {
	recs, err := Generate(spec)
	if err != nil {
		return nil, err
	}
	g := spec.withDefaults()
	return FromRecords(g.Kind, g.Apps, recs)
}

// GenerateFile materialises spec and writes it to path (CSV if the path ends
// in ".csv", binary otherwise), so CI builds traces on demand instead of
// carrying fixtures.
func GenerateFile(path string, spec GenSpec) (*Trace, error) {
	t, err := GenerateTrace(spec)
	if err != nil {
		return nil, err
	}
	if err := t.WriteFile(path); err != nil {
		return nil, err
	}
	return t, nil
}

package workload

import (
	"fmt"
	"sort"
)

// BatchClass is the cache-behaviour classification the paper borrows from the
// Vantage evaluation: insensitive (n), cache-friendly (f), cache-fitting (t),
// and streaming (s).
type BatchClass byte

// Batch classes.
const (
	Insensitive   BatchClass = 'n'
	CacheFriendly BatchClass = 'f'
	CacheFitting  BatchClass = 't'
	Streaming     BatchClass = 's'
)

// String returns the single-letter class code used in mix names (nnf, nft...).
func (c BatchClass) String() string {
	switch c {
	case Insensitive:
		return "n"
	case CacheFriendly:
		return "f"
	case CacheFitting:
		return "t"
	case Streaming:
		return "s"
	default:
		return "?"
	}
}

// ParseBatchClass converts a single-letter class code into a BatchClass.
func ParseBatchClass(s string) (BatchClass, error) {
	switch s {
	case "n":
		return Insensitive, nil
	case "f":
		return CacheFriendly, nil
	case "t":
		return CacheFitting, nil
	case "s":
		return Streaming, nil
	default:
		return 0, fmt.Errorf("workload: unknown batch class %q", s)
	}
}

// AllBatchClasses returns the four classes in the order used in mix names.
func AllBatchClasses() []BatchClass {
	return []BatchClass{Insensitive, CacheFriendly, CacheFitting, Streaming}
}

// BatchProfile describes one batch application: its LLC intensity, core
// parameters and data layout. Batch applications have no request structure;
// they execute continuously and are measured by IPC.
type BatchProfile struct {
	// Name of the SPEC CPU2006 application this profile stands in for.
	Name string
	// Class is the cache-behaviour class.
	Class BatchClass
	// APKI is LLC accesses per thousand instructions.
	APKI float64
	// BaseCPI is cycles per instruction when all LLC accesses hit.
	BaseCPI float64
	// MLP is the average miss overlap sustained by an OOO core.
	MLP float64
	// Layers describe the application's data regions.
	Layers []Layer
	// StreamWeight is the fraction of accesses that never hit.
	StreamWeight float64
	// ROIInstructions is the default measured region of interest.
	ROIInstructions uint64
}

// Validate reports configuration problems in the profile.
func (p BatchProfile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("workload: batch profile with empty name")
	}
	if p.APKI <= 0 || p.BaseCPI <= 0 || p.MLP <= 0 {
		return fmt.Errorf("workload: batch profile %q needs positive APKI, BaseCPI and MLP", p.Name)
	}
	for _, l := range p.Layers {
		if err := l.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// specClassification assigns each of the 29 SPEC CPU2006 applications used in
// the paper's batch mixes to a class, following the style of the Vantage
// classification the paper references ([45, Table 2]). The exact table is not
// reproduced in the paper, so this assignment is approximate; what matters for
// the evaluation is having all four classes represented in realistic
// proportions.
var specClassification = []struct {
	name  string
	class BatchClass
}{
	{"perlbench", Insensitive}, {"bzip2", Insensitive}, {"gamess", Insensitive},
	{"gromacs", Insensitive}, {"namd", Insensitive}, {"gobmk", Insensitive},
	{"povray", Insensitive}, {"calculix", Insensitive}, {"hmmer", Insensitive},
	{"sjeng", Insensitive}, {"h264ref", Insensitive}, {"tonto", Insensitive},
	{"gcc", CacheFriendly}, {"zeusmp", CacheFriendly}, {"cactusADM", CacheFriendly},
	{"dealII", CacheFriendly}, {"soplex", CacheFriendly}, {"wrf", CacheFriendly},
	{"sphinx3", CacheFriendly},
	{"mcf", CacheFitting}, {"omnetpp", CacheFitting}, {"astar", CacheFitting},
	{"xalancbmk", CacheFitting},
	{"bwaves", Streaming}, {"milc", Streaming}, {"leslie3d", Streaming},
	{"GemsFDTD", Streaming}, {"libquantum", Streaming}, {"lbm", Streaming},
}

// jitter derives a deterministic per-name factor in [1-spread, 1+spread] so
// that the 29 profiles within a class are not identical clones.
func jitter(name string, salt uint64, spread float64) float64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	r := NewRand(SplitSeed(h, salt))
	return 1 + spread*(2*r.Float64()-1)
}

// batchTemplate returns the class template profile scaled by the per-name
// jitter factors.
func batchTemplate(name string, class BatchClass) BatchProfile {
	sz := jitter(name, 11, 0.35)
	ap := jitter(name, 13, 0.20)
	p := BatchProfile{Name: name, Class: class, ROIInstructions: 1_500_000}
	switch class {
	case Insensitive:
		p.APKI, p.BaseCPI, p.MLP = 1.0*ap, 0.70, 1.5
		p.Layers = []Layer{{Name: "hot", Lines: scaleLines(100, sz), Weight: 0.85, ZipfS: 1.05}}
		p.StreamWeight = 0.15
	case CacheFriendly:
		p.APKI, p.BaseCPI, p.MLP = 10*ap, 0.80, 2.0
		p.Layers = []Layer{
			{Name: "hot", Lines: scaleLines(400, sz), Weight: 0.40, ZipfS: 1.05},
			{Name: "warm", Lines: scaleLines(1500, sz), Weight: 0.30},
			{Name: "cold", Lines: scaleLines(4000, sz), Weight: 0.15},
		}
		p.StreamWeight = 0.15
	case CacheFitting:
		p.APKI, p.BaseCPI, p.MLP = 12*ap, 0.85, 1.8
		p.Layers = []Layer{
			{Name: "fitting", Lines: scaleLines(1600, sz), Weight: 0.75},
			{Name: "hot", Lines: scaleLines(80, sz), Weight: 0.15},
		}
		p.StreamWeight = 0.10
	case Streaming:
		p.APKI, p.BaseCPI, p.MLP = 20*ap, 0.80, 3.5
		p.Layers = []Layer{{Name: "hot", Lines: scaleLines(80, sz), Weight: 0.15}}
		p.StreamWeight = 0.85
	}
	return p
}

func scaleLines(base float64, factor float64) uint64 {
	v := base * factor
	if v < 1 {
		v = 1
	}
	return uint64(v)
}

// batchProfiles holds the instantiated 29 SPEC-like batch profiles.
var batchProfiles = func() map[string]BatchProfile {
	m := make(map[string]BatchProfile, len(specClassification))
	for _, e := range specClassification {
		m[e.name] = batchTemplate(e.name, e.class)
	}
	return m
}()

// BatchByName returns the built-in batch profile with the given name.
func BatchByName(name string) (BatchProfile, error) {
	p, ok := batchProfiles[name]
	if !ok {
		return BatchProfile{}, fmt.Errorf("workload: unknown batch profile %q", name)
	}
	return p, nil
}

// TraceReplayProfile returns the timing profile trace-replay app slots run
// under. A replayed trace supplies addresses only; the core-side parameters
// (APKI, CPI, MLP) still have to come from a profile, and the layer set is
// just the synthetic stand-in the slot is constructed with before the trace
// stream replaces it. The parameters are a moderate cache-friendly shape so
// replay slots neither dominate nor vanish in a mix by construction.
func TraceReplayProfile() BatchProfile {
	return BatchProfile{
		Name:            "trace-replay",
		Class:           CacheFriendly,
		APKI:            12,
		BaseCPI:         0.8,
		MLP:             2.0,
		Layers:          []Layer{{Name: "replay", Lines: 4096, Weight: 1}},
		ROIInstructions: 1_500_000,
	}
}

// BatchByClass returns the names of all batch profiles in the given class,
// sorted, so mixes can be drawn per class.
func BatchByClass(class BatchClass) []string {
	var out []string
	for _, e := range specClassification {
		if e.class == class {
			out = append(out, e.name)
		}
	}
	sort.Strings(out)
	return out
}

// BatchApp is an instantiated batch application bound to an address stream.
type BatchApp struct {
	Profile BatchProfile
	stream  *Stream
}

// NewBatchApp instantiates profile for mix slot appIndex with the given seed.
func NewBatchApp(profile BatchProfile, appIndex int, seed uint64) (*BatchApp, error) {
	if err := profile.Validate(); err != nil {
		return nil, err
	}
	st, err := NewStream(appIndex, profile.Layers, profile.StreamWeight, NewClonableRand(SplitSeed(seed, 3)))
	if err != nil {
		return nil, err
	}
	return &BatchApp{Profile: profile, stream: st}, nil
}

// Clone returns a deep copy whose address stream continues identically and
// independently of the original.
func (a *BatchApp) Clone() *BatchApp {
	return &BatchApp{Profile: a.Profile, stream: a.stream.Clone()}
}

// Stream returns the application's address stream.
func (a *BatchApp) Stream() *Stream { return a.stream }

// InstructionsPerAccess returns the average instructions between LLC accesses.
func (a *BatchApp) InstructionsPerAccess() float64 { return 1000 / a.Profile.APKI }

// CyclesPerAccessNoMiss returns the average cycles between LLC accesses when
// every access hits.
func (a *BatchApp) CyclesPerAccessNoMiss() float64 {
	return a.Profile.BaseCPI * a.InstructionsPerAccess()
}

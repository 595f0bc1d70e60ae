// Package scenario defines the versioned JSON scenario format: one file
// describing everything a run needs — the machine, the application mix, an
// optional cluster fleet, the scheme matrix and a fault plan — so experiment
// shapes ship as data instead of command wiring. The format is strictly
// declarative: parsing stores field values verbatim (defaults are resolved by
// accessor methods at build time), which makes Spec -> JSON -> Spec a fixed
// point, and unknown or mistyped fields are rejected with the field path and
// the expected type (see Parse).
package scenario

import (
	"fmt"
	"strings"

	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Version is the scenario format version this package reads and writes.
const Version = 1

// Default values resolved by the accessor methods: a zero field in the JSON
// means "the default", keeping hand-written scenarios short.
const (
	defaultSeed          = 1
	defaultRequestFactor = 0.25
	defaultLLCMB         = 12
	defaultL1KB          = 32
	defaultL2KB          = 256
	defaultSlack         = 0.05
	defaultTailPct       = 95
)

// Spec is one complete scenario.
type Spec struct {
	// Version must be the format version (1). Required so old binaries fail
	// loudly on future formats instead of silently dropping fields.
	Version int `json:"version"`
	// Name identifies the scenario in reports and pool keys.
	Name string `json:"name"`
	// Description is free-form documentation carried into reports.
	Description string `json:"description,omitempty"`
	// Seed drives all run randomness (0 = 1).
	Seed uint64 `json:"seed,omitempty"`
	// RequestFactor scales every profile's request count (0 = 0.25, the
	// default command-line scale).
	RequestFactor float64 `json:"request_factor,omitempty"`
	// Machine describes the per-node hardware.
	Machine Machine `json:"machine,omitempty"`
	// Apps is the application mix. Single-node scenarios may mix several
	// latency-critical entries (multi-tenant tiers); cluster scenarios need
	// exactly one latency-critical entry — the replica every node runs.
	Apps []App `json:"apps"`
	// Cluster, when set, lifts the mix to a multi-node fleet.
	Cluster *Cluster `json:"cluster,omitempty"`
	// Schemes is the cache-management scheme matrix the scenario runs under.
	Schemes []Scheme `json:"schemes"`
	// Faults is the fault plan (cluster scenarios only).
	Faults []Fault `json:"faults,omitempty"`
	// Report configures the windowed tail report.
	Report Report `json:"report,omitempty"`
}

// Machine describes the simulated server hardware. Zero fields mean the
// default machine (the scaled Table 2 system); negative cache sizes disable
// the level.
type Machine struct {
	// LLCMB is the shared LLC capacity in model MB (0 = 12).
	LLCMB float64 `json:"llc_mb,omitempty"`
	// L1KB and L2KB size the private levels in model KB (0 = default 32/256,
	// negative = level disabled).
	L1KB float64 `json:"l1_kb,omitempty"`
	L2KB float64 `json:"l2_kb,omitempty"`
	// InclusiveL2 makes the private L2 inclusive of L1.
	InclusiveL2 bool `json:"inclusive_l2,omitempty"`
	// Flat disables both private levels (the pre-hierarchy machine).
	Flat bool `json:"flat,omitempty"`
}

// App is one application entry of the mix. Exactly one of LC, Batch and
// Trace identifies the workload.
type App struct {
	// LC names a latency-critical profile (xapian, masstree, moses, shore,
	// specjbb).
	LC string `json:"lc,omitempty"`
	// Batch names a batch profile.
	Batch string `json:"batch,omitempty"`
	// Trace is the path of a recorded mem-kind trace file (internal/tracein
	// format, binary or CSV). The entry runs as a batch-kind slot whose
	// addresses replay the recording under the built-in trace-replay timing
	// profile; load, sched and instances > 1 do not apply (a recording cannot
	// be re-timed, and replaying one column twice would alias its address
	// space). Single-node scenarios only. The file is opened when the
	// experiment is built, not at validation, so specs stay portable.
	Trace string `json:"trace,omitempty"`
	// TraceApp selects the app column of a multi-app trace (0-based; trace
	// entries only). List several entries with distinct columns to replay a
	// multi-app recording side by side.
	TraceApp int `json:"trace_app,omitempty"`
	// Load is the latency-critical offered load in (0,1).
	Load float64 `json:"load,omitempty"`
	// Instances replicates the entry (0 = 1).
	Instances int `json:"instances,omitempty"`
	// Sched is a load schedule in workload.ParseSchedule syntax (empty or
	// "const" = constant). Latency-critical entries only. In cluster mode the
	// single LC entry's schedule drives the global query rate.
	Sched string `json:"sched,omitempty"`
}

// Cluster lifts the mix to a fleet: every node runs one replica of the LC
// entry plus the batch set.
type Cluster struct {
	// Nodes is the fleet size.
	Nodes int `json:"nodes"`
	// Fanout is how many nodes each query touches (0 = 1).
	Fanout int `json:"fanout,omitempty"`
	// Quorum completes a query at its quorum-th response (0 = fanout).
	Quorum int `json:"quorum,omitempty"`
	// Balancer is the leaf-assignment policy: rr, random, weighted, p2c
	// (empty = rr).
	Balancer string `json:"balancer,omitempty"`
	// Hedge issues one eager duplicate per query after this fraction of the
	// deadline (0 disables).
	Hedge float64 `json:"hedge,omitempty"`
	// Overrides specialise individual nodes (heterogeneous fleets).
	Overrides []NodeOverride `json:"overrides,omitempty"`
}

// NodeOverride specialises one node of the fleet.
type NodeOverride struct {
	// Node is the index in [0, Nodes).
	Node int `json:"node"`
	// LLCMB overrides the node's LLC capacity (0 = the machine's).
	LLCMB float64 `json:"llc_mb,omitempty"`
	// Weight overrides the node's capacity weight for the weighted balancer
	// (0 = derived from LLC size). Weights are relative: give every node one
	// or none.
	Weight float64 `json:"weight,omitempty"`
}

// Scheme is one cache-management scheme of the matrix.
type Scheme struct {
	// Name is the scheme: lru, ucp, onoff, staticlc, ubik.
	Name string `json:"name"`
	// Slack is Ubik's tail-latency slack (0 = 0.05); only ubik may set it.
	Slack float64 `json:"slack,omitempty"`
}

// Fault is one fault-plan entry (see cluster.Fault for the semantics).
type Fault struct {
	// Kind is node-down, fail-slow or restart.
	Kind string `json:"kind"`
	// Node is the faulted node's index.
	Node int `json:"node"`
	// AtCycle is when the fault takes effect.
	AtCycle uint64 `json:"at_cycle"`
	// DurationCycles is the window length (node-down, fail-slow).
	DurationCycles uint64 `json:"duration_cycles,omitempty"`
	// Factor is the fail-slow service-demand inflation (>= 1).
	Factor float64 `json:"factor,omitempty"`
}

// Report configures the windowed tail report.
type Report struct {
	// WindowCycles is the tail-report window width (0 = automatic: the
	// reconfiguration interval when the scenario is time-varying or faulted,
	// off otherwise).
	WindowCycles uint64 `json:"window_cycles,omitempty"`
	// TailPercentile is the tail metric percentile (0 = 95).
	TailPercentile float64 `json:"tail_percentile,omitempty"`
}

// SeedOrDefault resolves the run seed.
func (s Spec) SeedOrDefault() uint64 {
	if s.Seed == 0 {
		return defaultSeed
	}
	return s.Seed
}

// RequestFactorOrDefault resolves the request-count scale.
func (s Spec) RequestFactorOrDefault() float64 {
	if s.RequestFactor == 0 {
		return defaultRequestFactor
	}
	return s.RequestFactor
}

// TailPercentileOrDefault resolves the report's tail percentile.
func (s Spec) TailPercentileOrDefault() float64 {
	if s.Report.TailPercentile == 0 {
		return defaultTailPct
	}
	return s.Report.TailPercentile
}

// IsCluster reports whether the scenario runs a fleet.
func (s Spec) IsCluster() bool { return s.Cluster != nil }

// LCApps returns the latency-critical entries in mix order.
func (s Spec) LCApps() []App {
	var out []App
	for _, a := range s.Apps {
		if a.LC != "" {
			out = append(out, a)
		}
	}
	return out
}

// TraceApps returns the trace-replay entries in mix order.
func (s Spec) TraceApps() []App {
	var out []App
	for _, a := range s.Apps {
		if a.Trace != "" {
			out = append(out, a)
		}
	}
	return out
}

// InstancesOrDefault resolves an entry's replication count.
func (a App) InstancesOrDefault() int {
	if a.Instances == 0 {
		return 1
	}
	return a.Instances
}

// ScheduleSpec parses the entry's load schedule.
func (a App) ScheduleSpec() (workload.ScheduleSpec, error) {
	if a.Sched == "" {
		return workload.ScheduleSpec{}, nil
	}
	return workload.ParseSchedule(a.Sched)
}

// lines converts model MB to cache lines.
func lines(mb float64) uint64 { return uint64(mb * workload.LinesPerMB) }

// BaseConfig resolves the machine description into the simulator
// configuration shared by every node: the default scaled Table 2 system with
// the scenario's LLC size, private levels and seed applied. Window widths are
// the runner's business (WindowCycles).
func (s Spec) BaseConfig() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Seed = s.SeedOrDefault()
	cfg.TailPercentile = s.TailPercentileOrDefault()
	if s.Machine.LLCMB != 0 {
		cfg.LLC = cache.DefaultZ452(lines(s.Machine.LLCMB), cfg.LLC.Partitions)
	}
	if s.Machine.Flat {
		cfg.Hierarchy = cache.HierarchyConfig{}
	} else {
		l1, l2 := s.Machine.L1KB, s.Machine.L2KB
		if l1 == 0 {
			l1 = defaultL1KB
		} else if l1 < 0 {
			l1 = 0 // negative = level disabled
		}
		if l2 == 0 {
			l2 = defaultL2KB
		} else if l2 < 0 {
			l2 = 0
		}
		cfg.Hierarchy = sim.HierarchyForKB(l1, l2, s.Machine.InclusiveL2)
	}
	return cfg
}

// NodeLLCMB resolves one node's LLC capacity in model MB, applying overrides.
func (s Spec) NodeLLCMB(node int) float64 {
	mb := s.Machine.LLCMB
	if mb == 0 {
		mb = defaultLLCMB
	}
	if s.Cluster != nil {
		for _, o := range s.Cluster.Overrides {
			if o.Node == node && o.LLCMB != 0 {
				mb = o.LLCMB
			}
		}
	}
	return mb
}

// NodeWeight resolves one node's capacity weight override (0 = derive from
// the LLC size, the cluster layer's default).
func (s Spec) NodeWeight(node int) float64 {
	if s.Cluster != nil {
		for _, o := range s.Cluster.Overrides {
			if o.Node == node {
				return o.Weight
			}
		}
	}
	return 0
}

// TimeVarying reports whether any entry (or the cluster's query stream) has a
// non-constant load schedule or the scenario has faults — the cases the
// windowed tail report defaults on for.
func (s Spec) TimeVarying() bool {
	if len(s.Faults) > 0 {
		return true
	}
	for _, a := range s.Apps {
		if sched, err := a.ScheduleSpec(); err == nil && !sched.IsConstant() {
			return true
		}
	}
	return false
}

// WindowCycles resolves the report window width against the machine's
// reconfiguration interval: an explicit width wins, otherwise time-varying
// and faulted scenarios report at reconfiguration granularity and
// steady-state scenarios skip windowed recording entirely.
func (s Spec) WindowCycles(cfg sim.Config) uint64 {
	if s.Report.WindowCycles > 0 {
		return s.Report.WindowCycles
	}
	if s.TimeVarying() {
		return cfg.ReconfigIntervalCycles
	}
	return 0
}

// FanoutOrDefault resolves the cluster fan-out.
func (c Cluster) FanoutOrDefault() int {
	if c.Fanout == 0 {
		return 1
	}
	return c.Fanout
}

// BalancerKind resolves the balancer.
func (c Cluster) BalancerKind() cluster.BalancerKind {
	if c.Balancer == "" {
		return cluster.BalanceRoundRobin
	}
	return cluster.BalancerKind(c.Balancer)
}

// SlackOrDefault resolves Ubik's slack.
func (sc Scheme) SlackOrDefault() float64 {
	if sc.Slack == 0 {
		return defaultSlack
	}
	return sc.Slack
}

// ResolvedScheme is a scheme entry lowered to what the runner needs: a fresh-
// instance policy constructor, whether the scheme runs on an unpartitioned
// cache, and a key that uniquely identifies the construction for warm pools.
type ResolvedScheme struct {
	Scheme        Scheme
	Key           string
	NewPolicy     func() policy.Policy
	Unpartitioned bool
}

// PolicyName returns the display name of the scheme's policy.
func (r ResolvedScheme) PolicyName() string { return r.NewPolicy().Name() }

// ResolveScheme is the scheme catalogue: the one place a scheme name becomes a
// policy constructor and a cache organisation. slack is Ubik's exact
// tail-latency slack — 0 is strict Ubik, and the other schemes ignore it; a
// scenario entry's "0 = the default" is resolved by the caller
// (ResolvedSchemes).
func ResolveScheme(name string, slack float64) (ResolvedScheme, error) {
	r := ResolvedScheme{Key: fmt.Sprintf("%s|slack=%v", strings.ToLower(name), slack)}
	switch strings.ToLower(name) {
	case "lru":
		r.NewPolicy, r.Unpartitioned = func() policy.Policy { return policy.NewLRU() }, true
	case "ucp":
		r.NewPolicy = func() policy.Policy { return policy.NewUCP() }
	case "onoff":
		r.NewPolicy = func() policy.Policy { return policy.NewOnOff() }
	case "staticlc":
		r.NewPolicy = func() policy.Policy { return policy.NewStaticLC() }
	case "ubik":
		r.NewPolicy = func() policy.Policy { return core.NewUbikWithSlack(slack) }
	default:
		return ResolvedScheme{}, fmt.Errorf("scenario: unknown scheme %q (known: lru, ucp, onoff, staticlc, ubik)", name)
	}
	return r, nil
}

// ResolvedSchemes lowers the whole scheme matrix.
func (s Spec) ResolvedSchemes() ([]ResolvedScheme, error) {
	out := make([]ResolvedScheme, len(s.Schemes))
	for i, sc := range s.Schemes {
		r, err := ResolveScheme(sc.Name, sc.SlackOrDefault())
		if err != nil {
			return nil, err
		}
		r.Scheme = sc
		out[i] = r
	}
	return out, nil
}

// ClusterFaults lowers the fault plan to the cluster layer's representation.
func (s Spec) ClusterFaults() []cluster.Fault {
	var out []cluster.Fault
	for _, f := range s.Faults {
		out = append(out, cluster.Fault{
			Kind: cluster.FaultKind(f.Kind), Node: f.Node,
			AtCycle: f.AtCycle, DurationCycles: f.DurationCycles, Factor: f.Factor,
		})
	}
	return out
}

// Validate reports semantic problems with the scenario. It checks itself
// what only the format can get wrong (unknown profile or scheme names,
// malformed schedules, the mix a fleet replicates) and lowers the rest to the
// layer that runs it: the machine and report blocks to sim.Config's rules,
// the fleet shape and fault plan to cluster.Shape's.
func (s Spec) Validate() error {
	if s.Version != Version {
		return fmt.Errorf("scenario: unsupported version %d (this build reads version %d)", s.Version, Version)
	}
	if s.Name == "" {
		return fmt.Errorf("scenario: name is required")
	}
	if s.RequestFactor < 0 {
		return fmt.Errorf("scenario: request_factor must be positive, got %v", s.RequestFactor)
	}
	if s.Machine.LLCMB < 0 {
		return fmt.Errorf("scenario: machine.llc_mb must be positive, got %v", s.Machine.LLCMB)
	}
	if s.Machine.Flat && (s.Machine.L1KB != 0 || s.Machine.L2KB != 0 || s.Machine.InclusiveL2) {
		return fmt.Errorf("scenario: machine.flat disables the private levels; drop l1_kb/l2_kb/inclusive_l2")
	}
	if len(s.Apps) == 0 {
		return fmt.Errorf("scenario: apps is required (at least one entry)")
	}
	for i, a := range s.Apps {
		if err := validateApp(i, a); err != nil {
			return err
		}
	}
	if len(s.LCApps()) == 0 {
		return fmt.Errorf("scenario: need at least one latency-critical app entry")
	}
	if len(s.Schemes) == 0 {
		return fmt.Errorf("scenario: schemes is required (at least one entry)")
	}
	for i, sc := range s.Schemes {
		if _, err := ResolveScheme(sc.Name, sc.SlackOrDefault()); err != nil {
			return fmt.Errorf("scenario: schemes[%d]: %w", i, err)
		}
		if sc.Slack != 0 && strings.ToLower(sc.Name) != "ubik" {
			return fmt.Errorf("scenario: schemes[%d]: slack only applies to ubik, not %q", i, sc.Name)
		}
		if sc.Slack < 0 || sc.Slack >= 1 {
			return fmt.Errorf("scenario: schemes[%d]: slack must be in (0,1), got %v", i, sc.Slack)
		}
	}
	// The machine and report settings are judged by the layer they lower to.
	cfg := s.BaseConfig()
	if s.Cluster == nil {
		if len(s.Faults) > 0 {
			return fmt.Errorf("scenario: faults need a cluster (fault plans target fleet nodes)")
		}
		cfg.LatencyWindowCycles = s.Report.WindowCycles
		return cfg.Validate()
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	return s.validateCluster()
}

// validateApp checks one mix entry.
func validateApp(i int, a App) error {
	kinds := 0
	for _, set := range []bool{a.LC != "", a.Batch != "", a.Trace != ""} {
		if set {
			kinds++
		}
	}
	if kinds != 1 {
		return fmt.Errorf("scenario: apps[%d] must set exactly one of lc, batch and trace", i)
	}
	if a.Instances < 0 {
		return fmt.Errorf("scenario: apps[%d] has negative instances %d", i, a.Instances)
	}
	if a.Trace == "" && a.TraceApp != 0 {
		return fmt.Errorf("scenario: apps[%d] sets trace_app without a trace (it selects a trace file's app column)", i)
	}
	if a.Trace != "" {
		if a.TraceApp < 0 {
			return fmt.Errorf("scenario: apps[%d] has negative trace_app %d", i, a.TraceApp)
		}
		if a.Load != 0 || a.Sched != "" {
			return fmt.Errorf("scenario: apps[%d] (%s) replays a recorded stream; load and sched cannot re-time it", i, a.Trace)
		}
		if a.InstancesOrDefault() != 1 {
			return fmt.Errorf("scenario: apps[%d] (%s) cannot replicate a trace replay (instances %d would alias one recording's address space); list entries with distinct trace_app columns instead", i, a.Trace, a.Instances)
		}
		return nil
	}
	if a.LC != "" {
		if _, err := workload.LCByName(a.LC); err != nil {
			return fmt.Errorf("scenario: apps[%d]: %w", i, err)
		}
		if a.Load <= 0 || a.Load >= 1 {
			return fmt.Errorf("scenario: apps[%d] (%s) needs a load in (0,1), got %v", i, a.LC, a.Load)
		}
		if _, err := a.ScheduleSpec(); err != nil {
			return fmt.Errorf("scenario: apps[%d] (%s): %w", i, a.LC, err)
		}
		return nil
	}
	if _, err := workload.BatchByName(a.Batch); err != nil {
		return fmt.Errorf("scenario: apps[%d]: %w", i, err)
	}
	if a.Load != 0 || a.Sched != "" {
		return fmt.Errorf("scenario: apps[%d] (%s) is a batch app; load and sched do not apply", i, a.Batch)
	}
	return nil
}

// clusterShape lowers the fleet block, report settings and fault plan to the
// cluster layer's rulebook (cluster scenarios only).
func (s Spec) clusterShape() cluster.Shape {
	c := s.Cluster
	return cluster.Shape{
		Nodes: c.Nodes, Fanout: c.FanoutOrDefault(), Quorum: c.Quorum, Hedged: c.Hedge > 0,
		Balancer: c.BalancerKind(), WindowCycles: s.Report.WindowCycles,
		TailPercentile: s.Report.TailPercentile, Faults: s.ClusterFaults(),
	}
}

// validateCluster checks what only the scenario format can get wrong — the
// mix a fleet replicates, the hedge fraction, the per-node overrides — and
// leaves the fleet shape and fault plan to the cluster layer's rulebook.
func (s Spec) validateCluster() error {
	c := s.Cluster
	lcs := s.LCApps()
	if len(lcs) != 1 || lcs[0].InstancesOrDefault() != 1 {
		return fmt.Errorf("scenario: a cluster runs exactly one latency-critical replica per node; use one lc entry with instances 1")
	}
	if len(s.TraceApps()) > 0 {
		return fmt.Errorf("scenario: trace replay is single-node; drop the cluster block or the trace entries")
	}
	if c.Hedge < 0 || c.Hedge >= 1 {
		return fmt.Errorf("scenario: cluster.hedge must be a deadline fraction in [0,1), got %v", c.Hedge)
	}
	if err := s.clusterShape().Validate(); err != nil {
		return err
	}
	// weighted counts the nodes NodeWeight resolves to an explicit weight
	// (a node's first override wins, as there).
	seen := make(map[int]bool, len(c.Overrides))
	weighted := 0
	for i, o := range c.Overrides {
		if o.Node < 0 || o.Node >= c.Nodes {
			return fmt.Errorf("scenario: cluster.overrides[%d] targets node %d, want [0,%d)", i, o.Node, c.Nodes)
		}
		if o.LLCMB < 0 || o.Weight < 0 {
			return fmt.Errorf("scenario: cluster.overrides[%d] needs positive llc_mb and weight", i)
		}
		if !seen[o.Node] {
			seen[o.Node] = true
			if o.Weight > 0 {
				weighted++
			}
		}
	}
	// Weights are relative. A node without one falls back to its LLC line
	// count (~1e5), so next to explicit weights it takes all the traffic and
	// the run fails with "node N received no measured leaves".
	if weighted != 0 && weighted != c.Nodes {
		return fmt.Errorf("scenario: cluster.overrides give %d of %d nodes a weight; weights are relative, so give every node one or none (an unweighted node defaults to its LLC line count)", weighted, c.Nodes)
	}
	return nil
}

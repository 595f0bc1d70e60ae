package cacheserve

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/monitor"
	"repro/internal/policy"
)

// Governor runs policy epochs over the cache's live UMON feeds: every epoch
// it snapshots each tenant's sampled miss curve, assembles a plant-agnostic
// policy.PlantView, asks the policy (Ubik, UCP, ...) to reconfigure, and
// applies the resulting line targets as byte quotas via Cache.SetQuotas —
// the exact control loop the simulator runs at reconfiguration intervals,
// pointed at a real plant.
//
// Epochs can be driven synchronously (Step, used by tests and benchmarks)
// or by a background goroutine (Start/Stop). Live epochs are not bitwise
// deterministic — the sampled stream depends on goroutine interleaving (see
// monitor.SampledUMON) — but every epoch's decision is a pure function of
// the curves it snapshots, so convergence is testable against tolerance.
type Governor struct {
	cache *Cache
	pol   policy.Policy
	cfg   GovernorConfig

	mu       sync.Mutex // serialises Step against itself and Start/Stop
	lastSnap []monitor.SampledSnapshot
	lcFloor  []int64 // per-tenant TargetBytes for LC tenants, 0 for batch
	epochs   uint64

	// ring is the bounded decision history behind LastEpochs: each epoch's
	// curves-in → allocations-out, newest overwriting oldest. Guarded by mu.
	ring  [epochRingCap]EpochDecision
	ringN uint64 // epochs pushed; ring[(ringN-1)%cap] is the newest

	m *governorMetrics // nil when the cache has no metrics registry

	stop chan struct{}
	done chan struct{}
}

// epochRingCap bounds the decision history kept for introspection.
const epochRingCap = 32

// epochCurvePoints is the resolution decisions' miss curves are downsampled
// to for the ring: enough to see the shape, small enough to keep and serve.
const epochCurvePoints = 32

// EpochTenantDecision is one tenant's slice of an epoch decision: the curve
// the policy saw and the quota movement it caused.
type EpochTenantDecision struct {
	// Name is the tenant's configured name.
	Name string
	// CurveAccesses is the (rescaled) access count behind the curve; 0 means
	// the tenant was silent and contributed a flat zero curve.
	CurveAccesses float64
	// CurveTotalLines is the byte-axis-corrected reach of the curve.
	CurveTotalLines uint64
	// MissProb samples the curve's miss probability at epochCurvePoints
	// evenly spaced allocations up to CurveTotalLines.
	MissProb []float64
	// PrevQuotaBytes and NewQuotaBytes bracket the epoch's quota movement.
	PrevQuotaBytes, NewQuotaBytes int64
}

// EpochDecision records one governor epoch for introspection: what curves
// went in, what allocations came out, and how long deciding took.
type EpochDecision struct {
	// Epoch is the 1-based epoch ordinal.
	Epoch uint64
	// UnixNanos is the cache clock's reading when the epoch ran.
	UnixNanos int64
	// Duration is the wall time the epoch's decision took.
	Duration time.Duration
	// Tenants holds one entry per tenant, in tenant order.
	Tenants []EpochTenantDecision
}

// governorMetrics holds the governor's registered instruments; the names and
// labels are part of the DESIGN.md §12 contract.
type governorMetrics struct {
	epochs             *metrics.Counter
	duration           *metrics.Histogram
	quota              []*metrics.Gauge
	deltaUp, deltaDown []*metrics.Counter
}

func newGovernorMetrics(c *Cache, reg *metrics.Registry) *governorMetrics {
	m := &governorMetrics{
		epochs: reg.Counter("governor_epochs_total", "Reconfiguration epochs run."),
		duration: reg.Histogram("governor_epoch_duration_seconds",
			"Wall time per governor epoch (curve snapshot through quota apply).",
			metrics.DurationBuckets()),
	}
	for t := range c.cfg.Tenants {
		l := tenantLabel(c, t)
		m.quota = append(m.quota, reg.Gauge("governor_tenant_quota_bytes",
			"Byte quota the governor last applied, per tenant.", l))
		m.deltaUp = append(m.deltaUp, reg.Counter("governor_tenant_quota_delta_bytes_total",
			"Cumulative quota movement per tenant, by direction.", l, metrics.L("direction", "up")))
		m.deltaDown = append(m.deltaDown, reg.Counter("governor_tenant_quota_delta_bytes_total",
			"Cumulative quota movement per tenant, by direction.", l, metrics.L("direction", "down")))
	}
	return m
}

// The live cache presents itself to the policy layer with these fixed
// parameters.
const (
	// epochCycles is the interval length recorded as PlantView.EpochCycles,
	// the clock's unit, and the synthetic deadline for latency-critical
	// tenants, which have no request deadlines in live mode.
	epochCycles = 1_000_000
	// policyCurvePoints is the interpolation granularity of the curves
	// handed to the policy.
	policyCurvePoints = 256
	// tenantMissPenalty weighs every tenant's misses equally in policy
	// decisions.
	tenantMissPenalty = 1
)

// GovernorConfig tunes the governor.
type GovernorConfig struct {
	// Epoch is the background reconfiguration period (Start); 0 = 100ms.
	Epoch time.Duration
	// MinTenantBytes floors every tenant's quota so a cold or bursty tenant
	// is never starved to zero by one bad epoch; 0 = capacity/256.
	MinTenantBytes int64
}

func (g GovernorConfig) withDefaults(capacity int64) GovernorConfig {
	if g.Epoch == 0 {
		g.Epoch = 100 * time.Millisecond
	}
	if g.MinTenantBytes == 0 {
		g.MinTenantBytes = capacity / 256
	}
	return g
}

// NewGovernor attaches a policy to the cache. The cache must have sampling
// enabled (SampleRate > 0): without UMON feeds there are no miss curves to
// govern from.
func NewGovernor(c *Cache, pol policy.Policy, cfg GovernorConfig) (*Governor, error) {
	if c.feeds == nil {
		return nil, fmt.Errorf("cacheserve: governor needs a cache with SampleRate > 0")
	}
	if pol == nil {
		return nil, fmt.Errorf("cacheserve: governor needs a policy")
	}
	cfg = cfg.withDefaults(c.cfg.CapacityBytes)
	if cfg.MinTenantBytes*int64(c.NumTenants()) > c.cfg.CapacityBytes {
		return nil, fmt.Errorf("cacheserve: MinTenantBytes %d × %d tenants exceeds capacity %d",
			cfg.MinTenantBytes, c.NumTenants(), c.cfg.CapacityBytes)
	}
	lcFloor := make([]int64, c.NumTenants())
	for t := range lcFloor {
		if tc := c.Tenant(t); tc.LatencyCritical {
			lcFloor[t] = tc.TargetBytes
		}
	}
	g := &Governor{
		cache:    c,
		pol:      pol,
		cfg:      cfg,
		lastSnap: make([]monitor.SampledSnapshot, c.NumTenants()),
		lcFloor:  lcFloor,
	}
	if c.cfg.Metrics != nil {
		g.m = newGovernorMetrics(c, c.cfg.Metrics)
	}
	return g, nil
}

// Epochs returns how many epochs have run.
func (g *Governor) Epochs() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.epochs
}

// Step runs one reconfiguration epoch synchronously and returns the applied
// per-tenant byte quotas.
func (g *Governor) Step() ([]int64, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.step()
}

func (g *Governor) step() ([]int64, error) {
	start := time.Now()
	c := g.cache
	n := c.NumTenants()
	lines := c.CapacityLines()
	stats := c.Stats()

	apps := make([]policy.AppObservation, n)
	targets := make([]uint64, n)
	for t := 0; t < n; t++ {
		curve, snap := c.feeds[t].CurveAndSnapshot(g.lastSnap[t])
		g.lastSnap[t] = snap
		if curve.Accesses > 0 {
			// The UMON's x-axis is in entries: every distinct key occupies one
			// shadow-tag line regardless of its real size. The policy's lines
			// are LineBytes-sized byte units, so stretch the curve onto the
			// byte axis by the tenant's measured mean entry size — otherwise a
			// tenant with large entries looks ~(entry/LineBytes)× cheaper to
			// cache than it is, and (e.g.) a wrapping scan's reuse cliff lands
			// inside the reachable range when it is really beyond capacity.
			if stats[t].Keys > 0 {
				if avg := stats[t].BytesUsed / int64(stats[t].Keys); avg > lineBytes {
					curve.TotalLines = uint64(float64(curve.TotalLines) * float64(avg) / float64(lineBytes))
				}
			}
			curve = curve.Interpolate(policyCurvePoints)
		} else {
			// A silent tenant contributes a flat zero curve: no utility, so
			// utility policies shrink it toward the floor until it speaks.
			curve = monitor.FlatCurve(lines, 2, 0, 0)
		}
		tc := c.cfg.Tenants[t]
		targets[t] = uint64(stats[t].QuotaBytes / lineBytes)
		apps[t] = policy.AppObservation{
			LatencyCritical:    tc.LatencyCritical,
			Active:             true,
			Curve:              curve,
			MissPenalty:        tenantMissPenalty,
			CyclesPerAccessHit: 1,
			CurrentTarget:      targets[t],
			Occupancy:          uint64(stats[t].BytesUsed / lineBytes),
			LCTargetLines:      uint64(tc.TargetBytes / lineBytes),
			DeadlineCycles:     epochCycles,
			Misses:             stats[t].Misses,
			Snap:               g.lastSnap[t].UMON,
		}
	}
	g.epochs++
	view := &policy.PlantView{
		Apps:        apps,
		Lines:       lines,
		EpochCycles: epochCycles,
		Clock:       g.epochs * epochCycles,
	}
	policy.ApplyResizes(targets, g.pol.Reconfigure(view))

	quotas := normalizeQuotas(targets, lineBytes, c.cfg.CapacityBytes, g.cfg.MinTenantBytes, g.lcFloor)
	if err := c.SetQuotas(quotas); err != nil {
		return nil, err
	}
	g.record(apps, stats, quotas, time.Since(start))
	return quotas, nil
}

// record pushes the epoch's decision onto the introspection ring and, when
// the cache is instrumented, mirrors it into the governor's metric families.
// Runs under g.mu as part of step; off the data path, so the allocations for
// the downsampled curves are fine.
func (g *Governor) record(apps []policy.AppObservation, stats []TenantStats, quotas []int64, elapsed time.Duration) {
	c := g.cache
	dec := EpochDecision{
		Epoch:     g.epochs,
		UnixNanos: c.clock(),
		Duration:  elapsed,
		Tenants:   make([]EpochTenantDecision, len(quotas)),
	}
	for t := range dec.Tenants {
		curve := apps[t].Curve
		td := EpochTenantDecision{
			Name:            tenantLabel(c, t).Value,
			CurveAccesses:   curve.Accesses,
			CurveTotalLines: curve.TotalLines,
			MissProb:        make([]float64, epochCurvePoints),
			PrevQuotaBytes:  stats[t].QuotaBytes,
			NewQuotaBytes:   quotas[t],
		}
		for i := range td.MissProb {
			td.MissProb[i] = curve.MissProbAt(curve.TotalLines * uint64(i+1) / epochCurvePoints)
		}
		dec.Tenants[t] = td
	}
	g.ring[g.ringN%epochRingCap] = dec
	g.ringN++
	if g.m == nil {
		return
	}
	g.m.epochs.Inc()
	g.m.duration.Observe(elapsed.Seconds())
	for t, q := range quotas {
		g.m.quota[t].Set(float64(q))
		if d := q - stats[t].QuotaBytes; d >= 0 {
			g.m.deltaUp[t].Add(uint64(d))
		} else {
			g.m.deltaDown[t].Add(uint64(-d))
		}
	}
}

// LastEpochs returns up to n of the most recent epoch decisions, newest
// first. The history is bounded (epochRingCap); older epochs are gone.
func (g *Governor) LastEpochs(n int) []EpochDecision {
	g.mu.Lock()
	defer g.mu.Unlock()
	kept := int(g.ringN)
	if kept > epochRingCap {
		kept = epochRingCap
	}
	if n > kept {
		n = kept
	}
	if n <= 0 {
		return nil
	}
	out := make([]EpochDecision, n)
	for i := 0; i < n; i++ {
		out[i] = g.ring[(g.ringN-1-uint64(i))%epochRingCap]
	}
	return out
}

// normalizeQuotas converts line targets to byte quotas, floors each at
// minBytes, and scales the part above the floors down proportionally when
// the total exceeds capacity (policies emit targets that sum to at most the
// line capacity, but flooring and byte rounding can push past it).
//
// When scaling down, a latency-critical tenant's floor is raised to
// min(grant, max(minBytes, lcFloor[i])): an LC reserve the policy granted is
// never shaved below its target by other tenants' rounding pressure, but a
// grant the policy already left below target is not boosted either. lcFloor
// may be nil (no LC protection); if the raised floors alone exceed capacity
// (over-subscribed LC targets), the LC floors are dropped and everything
// scales above minBytes as before, so the result always fits.
func normalizeQuotas(targets []uint64, lineBytes, capacity, minBytes int64, lcFloor []int64) []int64 {
	quotas := make([]int64, len(targets))
	var total int64
	for i, t := range targets {
		q := int64(t) * lineBytes
		if q < minBytes {
			q = minBytes
		}
		quotas[i] = q
		total += q
	}
	if total <= capacity {
		return quotas
	}
	floors := make([]int64, len(quotas))
	setFloors := func(useLC bool) (sumFloors, above int64) {
		for i, q := range quotas {
			f := minBytes
			if useLC && lcFloor != nil && lcFloor[i] > f {
				f = lcFloor[i]
			}
			if f > q {
				f = q
			}
			floors[i] = f
			sumFloors += f
			above += q - f
		}
		return sumFloors, above
	}
	sumFloors, above := setFloors(true)
	if sumFloors > capacity {
		sumFloors, above = setFloors(false)
	}
	if above == 0 {
		return quotas
	}
	spare := capacity - sumFloors
	if spare < 0 {
		spare = 0
	}
	for i := range quotas {
		excess := quotas[i] - floors[i]
		quotas[i] = floors[i] + int64(float64(excess)*float64(spare)/float64(above))
	}
	return quotas
}

// Start launches the background epoch loop. Stop (or nothing: the loop
// holds no resources beyond its goroutine) ends it.
func (g *Governor) Start() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.stop != nil {
		return
	}
	g.stop = make(chan struct{})
	g.done = make(chan struct{})
	go g.loop(g.stop, g.done)
}

func (g *Governor) loop(stop, done chan struct{}) {
	defer close(done)
	ticker := time.NewTicker(g.cfg.Epoch)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			// Epoch errors can only come from SetQuotas rejecting the vector,
			// which normalizeQuotas prevents; a background loop has no caller
			// to hand them to, so they are dropped by design.
			_, _ = g.Step()
		}
	}
}

// Stop ends the background loop and waits for it to exit. Safe to call
// without Start and more than once.
func (g *Governor) Stop() {
	g.mu.Lock()
	stop, done := g.stop, g.done
	g.stop, g.done = nil, nil
	g.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

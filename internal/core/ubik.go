package core

import (
	"fmt"

	"repro/internal/monitor"
	"repro/internal/policy"
)

// Config holds Ubik's tunables. The zero value is usable and matches the
// paper's strict Ubik; see NewUbik and NewUbikWithSlack.
type Config struct {
	// Slack is the allowed tail-latency degradation (0 = strict Ubik,
	// 0.05 = the paper's default "Ubik with slack").
	Slack float64
	// BoostTimeoutDeadlines caps how long an application may stay boosted, in
	// multiples of its deadline, as a backstop against profiling noise.
	BoostTimeoutDeadlines float64
	// ExactTransients switches the sizing maths from the paper's conservative
	// bounds to exact summations (used by the ablation study only).
	ExactTransients bool
	// DisableDeboost turns off accurate de-boosting: the application then
	// stays boosted until the deadline elapses (the behaviour the paper's
	// accurate de-boosting mechanism exists to avoid). Used by the ablation.
	DisableDeboost bool
}

// Ubik's fixed parameters, at the paper's values.
const (
	// buckets is the allocation granularity.
	buckets = 256
	// idleOptions is the number of idle-size candidates evaluated per app.
	idleOptions = 16
	// deboostGuard is the safety margin (in misses) added to the de-boosting
	// comparison to absorb UMON sampling error.
	deboostGuard = 4
)

// lcState is Ubik's per-latency-critical-application runtime state.
type lcState struct {
	sizing      Sizing
	sActive     uint64 // active size in use (target, or reduced by slack)
	strictBoost uint64 // boost size computed against the full target (low-watermark fallback)
	boosting    bool
	boostStart  uint64
	boostMisses uint64
	boostSnap   monitor.UMONSnapshot
	reverted    bool // low watermark tripped during this active period
	slackCtl    *SlackController
}

// Ubik is the paper's cache-management runtime (Section 5). It implements
// policy.Policy: the simulator drives it exactly like the baseline policies,
// through periodic reconfigurations and idle/active/de-boost events.
type Ubik struct {
	cfg Config

	lcApps    []int
	batchApps []int
	lc        map[int]*lcState
	repart    *RepartTable
	// lastBatchBudget tracks the batch budget implied by the most recent
	// resizes, used as the anchor for the repartitioning table.
	lastBatchBudget uint64
}

// NewUbik returns strict Ubik (no slack).
func NewUbik() *Ubik { return NewUbikWithConfig(Config{}) }

// NewUbikWithSlack returns Ubik with the given tail-latency slack (the paper
// evaluates 0%, 1%, 5% and 10%).
func NewUbikWithSlack(slack float64) *Ubik {
	return NewUbikWithConfig(Config{Slack: slack})
}

// NewUbikWithConfig returns Ubik with explicit tunables.
func NewUbikWithConfig(cfg Config) *Ubik {
	if cfg.BoostTimeoutDeadlines <= 0 {
		cfg.BoostTimeoutDeadlines = 2
	}
	return &Ubik{cfg: cfg, lc: make(map[int]*lcState)}
}

// clone returns a deep copy of one latency-critical app's runtime state,
// including the mid-boost UMON snapshot and the adaptive slack controller.
func (s *lcState) clone() *lcState {
	c := *s
	c.boostSnap = s.boostSnap
	c.boostSnap.HitsAtWay = append([]uint64(nil), s.boostSnap.HitsAtWay...)
	c.slackCtl = s.slackCtl.Clone()
	return &c
}

// Clone implements policy.Policy: every piece of Ubik's runtime state — the
// per-app sizings, boost phases and their UMON snapshots, the slack
// controllers, and the batch repartitioning table — is deep-copied, so the
// copy's de-boost decisions and reconfigurations cannot alias the original's
// state. Sizes for apps mid-boost carry over exactly: the copy behaves
// identically to the original from this point on.
func (u *Ubik) Clone() policy.Policy {
	c := &Ubik{
		cfg:             u.cfg,
		lcApps:          append([]int(nil), u.lcApps...),
		batchApps:       append([]int(nil), u.batchApps...),
		lc:              make(map[int]*lcState, len(u.lc)),
		repart:          u.repart.Clone(),
		lastBatchBudget: u.lastBatchBudget,
	}
	for app, st := range u.lc {
		c.lc[app] = st.clone()
	}
	return c
}

// Name implements policy.Policy.
func (u *Ubik) Name() string {
	if u.cfg.Slack > 0 {
		return fmt.Sprintf("Ubik(slack=%g%%)", u.cfg.Slack*100)
	}
	return "Ubik"
}

// Config returns the runtime's configuration.
func (u *Ubik) Config() Config { return u.cfg }

func (u *Ubik) state(app int, v policy.View) *lcState {
	s, ok := u.lc[app]
	if !ok {
		target := v.LCTargetLines(app)
		s = &lcState{
			sizing:      Sizing{SIdle: target, SBoost: target, SActive: target},
			sActive:     target,
			strictBoost: target,
			slackCtl:    NewSlackController(u.cfg.Slack),
		}
		u.lc[app] = s
	}
	return s
}

// Reconfigure implements policy.Policy: it recomputes every latency-critical
// application's idle/boost sizes, rebuilds the batch repartitioning table, and
// emits the corresponding targets.
func (u *Ubik) Reconfigure(v policy.View) []policy.Resize {
	n := v.NumApps()
	if n == 0 {
		return nil
	}
	u.lcApps = u.lcApps[:0]
	u.batchApps = u.batchApps[:0]
	for i := 0; i < n; i++ {
		if v.IsLatencyCritical(i) {
			u.lcApps = append(u.lcApps, i)
		} else {
			u.batchApps = append(u.batchApps, i)
		}
	}
	total := v.TotalLines()
	bucketLines := total / buckets
	if bucketLines == 0 {
		bucketLines = 1
	}

	// Anchor budget for the repartitioning table: the space batch apps have
	// had recently (approximated by the current LC targets).
	var lcNow uint64
	for _, app := range u.lcApps {
		lcNow += v.CurrentTarget(app)
	}
	baseline := uint64(0)
	if total > lcNow {
		baseline = total - lcNow
	}

	// Build the repartitioning table from the batch apps' fresh miss curves.
	curves := make([]monitor.MissCurve, len(u.batchApps))
	weights := make([]float64, len(u.batchApps))
	for j, app := range u.batchApps {
		curves[j] = v.MissCurve(app)
		weights[j] = v.MissPenalty(app)
	}
	u.repart = BuildRepartTable(u.batchApps, curves, weights, baseline, total, buckets)

	// Size every latency-critical partition.
	sBoostMax := total
	if len(u.lcApps) > 0 {
		sBoostMax = total / uint64(len(u.lcApps))
	}
	var resizes []policy.Resize
	var lcTargets uint64
	for _, app := range u.lcApps {
		st := u.state(app, v)
		target := v.LCTargetLines(app)
		curve := v.MissCurve(app)
		st.sActive = ReduceActiveSize(curve, target, st.slackCtl.MissSlack(), bucketLines)

		in := SizingInput{
			Curve:           curve,
			C:               v.CyclesPerAccessHit(app),
			M:               v.MissPenalty(app),
			SActive:         st.sActive,
			SBoostMax:       sBoostMax,
			DeadlineCycles:  v.DeadlineCycles(app),
			BucketLines:     bucketLines,
			IdleFraction:    v.IdleFraction(app),
			ExactTransients: u.cfg.ExactTransients,
			BatchHitsGain:   func(extra uint64) float64 { return u.repart.HitsGain(baseline, extra) },
			BatchMissCost:   func(lost uint64) float64 { return u.repart.MissCost(baseline, lost) },
		}
		st.sizing = ComputeSizing(in)

		// The low-watermark fallback always uses the strict (no-slack) sizing
		// against the full target.
		strictIn := in
		strictIn.SActive = target
		st.strictBoost = ComputeSizing(strictIn).SBoost

		want := u.desiredLCTarget(app, st, v)
		lcTargets += want
		resizes = append(resizes, policy.Resize{App: app, Target: want})
	}

	// Batch apps share whatever the latency-critical targets leave over.
	resizes = append(resizes, u.batchResizes(total, lcTargets)...)
	return resizes
}

// desiredLCTarget returns the partition target matching the app's current
// phase (idle, boosting, or steady active).
func (u *Ubik) desiredLCTarget(app int, st *lcState, v policy.View) uint64 {
	switch {
	case !v.Active(app):
		return st.sizing.SIdle
	case st.boosting:
		return st.sizing.SBoost
	default:
		return st.sActive
	}
}

// batchResizes distributes the space left after LC allocations to batch apps
// using the repartitioning table.
func (u *Ubik) batchResizes(total, lcTargets uint64) []policy.Resize {
	if u.repart == nil || len(u.batchApps) == 0 {
		return nil
	}
	budget := uint64(0)
	if total > lcTargets {
		budget = total - lcTargets
	}
	u.lastBatchBudget = budget
	alloc := u.repart.AllocationsFor(budget)
	out := make([]policy.Resize, 0, len(u.batchApps))
	for j, app := range u.batchApps {
		if j < len(alloc) {
			out = append(out, policy.Resize{App: app, Target: alloc[j]})
		}
	}
	return out
}

// retarget recomputes the LC app's target plus the batch allocations after a
// phase change for that app.
func (u *Ubik) retarget(v policy.View) []policy.Resize {
	total := v.TotalLines()
	var resizes []policy.Resize
	var lcTargets uint64
	for _, app := range u.lcApps {
		st := u.state(app, v)
		want := u.desiredLCTarget(app, st, v)
		lcTargets += want
		resizes = append(resizes, policy.Resize{App: app, Target: want})
	}
	resizes = append(resizes, u.batchResizes(total, lcTargets)...)
	return resizes
}

// OnActive implements policy.Policy: the application has new work, so Ubik
// boosts its partition and arms the accurate de-boosting check.
func (u *Ubik) OnActive(app int, v policy.View) []policy.Resize {
	if !v.IsLatencyCritical(app) {
		return nil
	}
	st := u.state(app, v)
	st.boosting = st.sizing.SBoost > st.sActive || st.sizing.SIdle < st.sActive
	st.boostStart = v.Now()
	st.boostMisses = v.PartitionMisses(app)
	st.boostSnap = v.UMONSnapshot(app)
	st.reverted = false
	if u.repart == nil {
		// Before the first reconfiguration Ubik behaves like StaticLC: the
		// state defaults already hold the full target.
		return nil
	}
	return u.retarget(v)
}

// OnIdle implements policy.Policy: the application ran out of requests, so its
// space (minus s_idle) goes back to the batch applications.
func (u *Ubik) OnIdle(app int, v policy.View) []policy.Resize {
	if !v.IsLatencyCritical(app) {
		return nil
	}
	st := u.state(app, v)
	st.boosting = false
	if u.repart == nil {
		return nil
	}
	return u.retarget(v)
}

// OnLCCheck implements policy.Policy: it emulates the accurate de-boosting
// circuit. While an application is boosted, the UMON tracks how many misses
// the current activity would have suffered at s_active; once that count
// exceeds the actual misses (plus a guard), the lost cycles have been
// recovered and the boost space is returned to the batch applications.
func (u *Ubik) OnLCCheck(app int, v policy.View) []policy.Resize {
	if !v.IsLatencyCritical(app) {
		return nil
	}
	st := u.state(app, v)
	if !st.boosting || u.repart == nil {
		return nil
	}
	actual := float64(v.PartitionMisses(app) - st.boostMisses)
	wouldHave := v.UMONMissesAtSince(app, st.boostSnap, st.sActive)

	// Low watermark (slack only): if actual misses outgrow the no-downsizing
	// estimate by more than the miss slack allows, fall back to the strict
	// sizing for the rest of this active period.
	if u.cfg.Slack > 0 && !st.reverted {
		atTarget := v.UMONMissesAtSince(app, st.boostSnap, v.LCTargetLines(app))
		if actual > (atTarget+deboostGuard)*(1+st.slackCtl.MissSlack()) {
			st.reverted = true
			st.sActive = v.LCTargetLines(app)
			st.sizing.SBoost = st.strictBoost
			if st.sizing.SBoost < st.sActive {
				st.sizing.SBoost = st.sActive
			}
			return u.retarget(v)
		}
	}

	deadline := v.DeadlineCycles(app)
	timedOut := deadline > 0 && float64(v.Now()-st.boostStart) > u.cfg.BoostTimeoutDeadlines*float64(deadline)
	recovered := !u.cfg.DisableDeboost && wouldHave >= actual+deboostGuard
	if recovered || timedOut {
		st.boosting = false
		return u.retarget(v)
	}
	return nil
}

// OnRequestComplete implements policy.Policy: request latencies feed the
// adaptive miss-slack controller.
func (u *Ubik) OnRequestComplete(app int, latencyCycles uint64, v policy.View) []policy.Resize {
	if !v.IsLatencyCritical(app) {
		return nil
	}
	st := u.state(app, v)
	st.slackCtl.Observe(latencyCycles, v.DeadlineCycles(app))
	return nil
}

// Sizing returns the current sizing for a latency-critical application, for
// tests and diagnostics. ok is false if the app is unknown.
func (u *Ubik) Sizing(app int) (Sizing, bool) {
	st, ok := u.lc[app]
	if !ok {
		return Sizing{}, false
	}
	return st.sizing, true
}

// Boosting reports whether the application is currently boosted.
func (u *Ubik) Boosting(app int) bool {
	st, ok := u.lc[app]
	return ok && st.boosting
}

var _ policy.Policy = (*Ubik)(nil)

package workload

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// ScheduleKind names a load-schedule shape.
type ScheduleKind string

// The built-in load-schedule shapes. Every shape is a deterministic function
// of simulated time (plus, for MMPP, a seeded random state sequence) that
// multiplies a latency-critical application's base arrival rate, so one
// calibrated offered load can be driven through bursts, ramps, diurnal cycles
// and flash crowds — the transient traffic Ubik's boost/de-boost machinery
// exists for.
const (
	// SchedConstant is the steady-state schedule: multiplier 1 everywhere.
	// The zero ScheduleSpec means the same thing.
	SchedConstant ScheduleKind = "const"
	// SchedBurst is a step burst: multiplier Mult during
	// [AtCycle, AtCycle+DurationCycles), 1 elsewhere; with PeriodCycles > 0
	// the pattern repeats every period.
	SchedBurst ScheduleKind = "burst"
	// SchedRamp ramps linearly from From to To over
	// [AtCycle, AtCycle+DurationCycles), holding From before and To after.
	SchedRamp ScheduleKind = "ramp"
	// SchedDiurnal is a sinusoid: 1 + Amp*sin(2*pi*t/PeriodCycles), the
	// scaled analogue of a day/night traffic cycle.
	SchedDiurnal ScheduleKind = "diurnal"
	// SchedFlash is a flash crowd: rate jumps to Mult at AtCycle and decays
	// exponentially back to 1 with time constant DecayCycles.
	SchedFlash ScheduleKind = "flash"
	// SchedMMPP is a two-state Markov-modulated process: the rate alternates
	// between Low (mean dwell OffCycles) and Mult (mean dwell OnCycles), with
	// exponentially distributed dwell times drawn from a seeded stream.
	SchedMMPP ScheduleKind = "mmpp"
)

// Schedule bounds: cycle-valued parameters must fit exactly in a float64
// (they round-trip through the flag parser), and multipliers must stay in a
// range where the modulated arrival process remains meaningful — a
// multiplier below minScheduleMult would stretch interarrival gaps so far
// that arrival clocks outrun the representable simulated-time range.
const (
	maxScheduleCycles = uint64(1e15) // < 2^53, exact in float64
	maxScheduleMult   = 1e6
	minScheduleMult   = 1e-3
	// minScheduleDwell keeps MMPP state flips coarse enough that catching
	// the evaluator up across a long idle gap stays cheap.
	minScheduleDwell = 1024
)

// ScheduleSpec describes a time-varying load schedule. The zero value is the
// constant (steady-state) schedule. Specs are plain comparable values so they
// can ride inside sim.AppSpec; per-run state (the MMPP dwell sequence) lives
// in the ScheduleEval built from a spec and a seed.
type ScheduleSpec struct {
	// Kind selects the shape; empty means SchedConstant.
	Kind ScheduleKind
	// AtCycle is when the burst/ramp/flash begins.
	AtCycle uint64
	// DurationCycles is the burst/ramp length.
	DurationCycles uint64
	// PeriodCycles is the diurnal period, or the burst repeat period (0 = a
	// one-shot burst).
	PeriodCycles uint64
	// DecayCycles is the flash crowd's exponential decay time constant.
	DecayCycles uint64
	// Mult is the high-rate multiplier (burst, flash, MMPP high state).
	Mult float64
	// From and To are the ramp endpoints.
	From, To float64
	// Amp is the diurnal amplitude, in [0, 1).
	Amp float64
	// OnCycles and OffCycles are the MMPP mean dwell times in the high and
	// low states.
	OnCycles, OffCycles float64
	// Low is the MMPP low-state multiplier (default 1).
	Low float64
}

// IsConstant reports whether the spec is the steady-state schedule.
func (s ScheduleSpec) IsConstant() bool {
	return s.Kind == "" || s.Kind == SchedConstant
}

// Validate reports specification problems. A valid spec's evaluator always
// returns a finite, strictly positive multiplier.
func (s ScheduleSpec) Validate() error {
	mult := func(name string, v float64) error {
		if math.IsNaN(v) || v < minScheduleMult || v > maxScheduleMult {
			return fmt.Errorf("workload: schedule %s must be in [%g, %g], got %v", name, minScheduleMult, maxScheduleMult, v)
		}
		return nil
	}
	cyc := func(name string, v uint64) error {
		if v > maxScheduleCycles {
			return fmt.Errorf("workload: schedule %s must be at most %d cycles, got %d", name, maxScheduleCycles, v)
		}
		return nil
	}
	pos := func(name string, v uint64) error {
		if err := cyc(name, v); err != nil {
			return err
		}
		if v == 0 {
			return fmt.Errorf("workload: schedule %s must be positive", name)
		}
		return nil
	}
	switch s.Kind {
	case "", SchedConstant:
		return nil
	case SchedBurst:
		if err := mult("x", s.Mult); err != nil {
			return err
		}
		for _, c := range []struct {
			name string
			v    uint64
			need bool
		}{{"at", s.AtCycle, false}, {"dur", s.DurationCycles, true}, {"period", s.PeriodCycles, false}} {
			if c.need {
				if err := pos(c.name, c.v); err != nil {
					return err
				}
			} else if err := cyc(c.name, c.v); err != nil {
				return err
			}
		}
		if s.PeriodCycles > 0 && s.AtCycle+s.DurationCycles > s.PeriodCycles {
			return fmt.Errorf("workload: repeating burst must fit its period: at+dur=%d > period=%d",
				s.AtCycle+s.DurationCycles, s.PeriodCycles)
		}
		return nil
	case SchedRamp:
		if err := mult("from", s.From); err != nil {
			return err
		}
		if err := mult("to", s.To); err != nil {
			return err
		}
		if err := cyc("at", s.AtCycle); err != nil {
			return err
		}
		return pos("dur", s.DurationCycles)
	case SchedDiurnal:
		if math.IsNaN(s.Amp) || s.Amp < 0 || s.Amp >= 1 {
			return fmt.Errorf("workload: diurnal amp must be in [0, 1), got %v", s.Amp)
		}
		return pos("period", s.PeriodCycles)
	case SchedFlash:
		if err := mult("x", s.Mult); err != nil {
			return err
		}
		if err := cyc("at", s.AtCycle); err != nil {
			return err
		}
		return pos("decay", s.DecayCycles)
	case SchedMMPP:
		if err := mult("x", s.Mult); err != nil {
			return err
		}
		if err := mult("lo", s.Low); err != nil {
			return err
		}
		for _, d := range []struct {
			name string
			v    float64
		}{{"on", s.OnCycles}, {"off", s.OffCycles}} {
			if math.IsNaN(d.v) || d.v < minScheduleDwell || d.v > float64(maxScheduleCycles) {
				return fmt.Errorf("workload: mmpp %s dwell must be in [%d, %d] cycles, got %v", d.name, minScheduleDwell, maxScheduleCycles, d.v)
			}
		}
		return nil
	default:
		return fmt.Errorf("workload: unknown schedule kind %q (known: const, burst, ramp, diurnal, flash, mmpp)", s.Kind)
	}
}

// fmtF renders a float64 losslessly (the shortest string that reparses to the
// same value), so String round-trips through ParseSchedule.
func fmtF(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func fmtU(v uint64) string { return strconv.FormatUint(v, 10) }

// String renders the spec in the -loadsched flag syntax; the output reparses
// to an equivalent spec.
func (s ScheduleSpec) String() string {
	switch s.Kind {
	case "", SchedConstant:
		return string(SchedConstant)
	case SchedBurst:
		out := fmt.Sprintf("burst:at=%s,dur=%s,x=%s", fmtU(s.AtCycle), fmtU(s.DurationCycles), fmtF(s.Mult))
		if s.PeriodCycles > 0 {
			out += ",period=" + fmtU(s.PeriodCycles)
		}
		return out
	case SchedRamp:
		return fmt.Sprintf("ramp:at=%s,dur=%s,from=%s,to=%s",
			fmtU(s.AtCycle), fmtU(s.DurationCycles), fmtF(s.From), fmtF(s.To))
	case SchedDiurnal:
		return fmt.Sprintf("diurnal:period=%s,amp=%s", fmtU(s.PeriodCycles), fmtF(s.Amp))
	case SchedFlash:
		return fmt.Sprintf("flash:at=%s,x=%s,decay=%s", fmtU(s.AtCycle), fmtF(s.Mult), fmtU(s.DecayCycles))
	case SchedMMPP:
		return fmt.Sprintf("mmpp:x=%s,on=%s,off=%s,lo=%s",
			fmtF(s.Mult), fmtF(s.OnCycles), fmtF(s.OffCycles), fmtF(s.Low))
	default:
		return string(s.Kind)
	}
}

// ParseSchedule parses the -loadsched flag syntax: a kind, optionally
// followed by ":" and comma-separated key=value parameters, e.g.
//
//	const
//	burst:at=8e6,dur=8e6,x=3[,period=4e7]
//	ramp:dur=2e7,to=3[,at=4e6,from=1]
//	diurnal:period=4e7[,amp=0.5]
//	flash:at=8e6,x=6,decay=4e6
//	mmpp:x=4,on=2e6,off=8e6[,lo=1]
//
// Values accept any Go float syntax ("2e6"). Malformed input returns an
// error, never a panic, and any returned spec passes Validate.
func ParseSchedule(input string) (ScheduleSpec, error) {
	text := strings.TrimSpace(input)
	if text == "" {
		return ScheduleSpec{Kind: SchedConstant}, nil
	}
	kindStr, rest, hasParams := strings.Cut(text, ":")
	kind := ScheduleKind(strings.TrimSpace(kindStr))
	params := map[string]float64{}
	if hasParams {
		for _, kv := range strings.Split(rest, ",") {
			kv = strings.TrimSpace(kv)
			if kv == "" {
				continue
			}
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return ScheduleSpec{}, fmt.Errorf("workload: schedule parameter %q is not key=value", kv)
			}
			k = strings.TrimSpace(k)
			f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			if err != nil {
				return ScheduleSpec{}, fmt.Errorf("workload: schedule parameter %s: %v", k, err)
			}
			if _, dup := params[k]; dup {
				return ScheduleSpec{}, fmt.Errorf("workload: duplicate schedule parameter %q", k)
			}
			params[k] = f
		}
	}
	take := func(key string, def float64) float64 {
		if v, ok := params[key]; ok {
			delete(params, key)
			return v
		}
		return def
	}
	var parseErr error
	cycles := func(key string, def uint64) uint64 {
		v := take(key, float64(def))
		if math.IsNaN(v) || v < 0 || v > float64(maxScheduleCycles) {
			if parseErr == nil {
				parseErr = fmt.Errorf("workload: schedule %s must be in [0, %d] cycles, got %v", key, maxScheduleCycles, v)
			}
			return 0
		}
		return uint64(v)
	}

	spec := ScheduleSpec{Kind: kind}
	switch kind {
	case SchedConstant:
	case SchedBurst:
		spec.AtCycle = cycles("at", 0)
		spec.DurationCycles = cycles("dur", 0)
		spec.PeriodCycles = cycles("period", 0)
		spec.Mult = take("x", 0)
	case SchedRamp:
		spec.AtCycle = cycles("at", 0)
		spec.DurationCycles = cycles("dur", 0)
		spec.From = take("from", 1)
		spec.To = take("to", 0)
	case SchedDiurnal:
		spec.PeriodCycles = cycles("period", 0)
		spec.Amp = take("amp", 0.5)
	case SchedFlash:
		spec.AtCycle = cycles("at", 0)
		spec.DecayCycles = cycles("decay", 0)
		spec.Mult = take("x", 0)
	case SchedMMPP:
		spec.Mult = take("x", 0)
		spec.OnCycles = take("on", 0)
		spec.OffCycles = take("off", 0)
		spec.Low = take("lo", 1)
	default:
		return ScheduleSpec{}, fmt.Errorf("workload: unknown schedule kind %q (known: const, burst, ramp, diurnal, flash, mmpp)", kind)
	}
	if parseErr != nil {
		return ScheduleSpec{}, parseErr
	}
	if len(params) > 0 {
		keys := make([]string, 0, len(params))
		for k := range params {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		return ScheduleSpec{}, fmt.Errorf("workload: unknown %s parameter(s) %v", kind, keys)
	}
	if err := spec.Validate(); err != nil {
		return ScheduleSpec{}, err
	}
	return spec, nil
}

// ScheduleEval evaluates a schedule's rate multiplier over simulated time.
// For the stateless shapes it is a pure function of t; for MMPP it carries
// the seeded dwell-time state, which advances monotonically — Multiplier must
// be called with nondecreasing t (the arrival process naturally does),
// earlier times just observe the current state.
type ScheduleEval struct {
	spec ScheduleSpec

	// MMPP state: rng draws the dwell times, high is the current state, and
	// phaseEnd is when the next state flip happens.
	rng      *Rand
	high     bool
	phaseEnd uint64
}

// NewEval builds an evaluator for the spec. seed drives the MMPP dwell
// sequence and is ignored by the stateless shapes; the same (spec, seed)
// always yields the same multiplier trajectory.
func (s ScheduleSpec) NewEval(seed uint64) *ScheduleEval {
	e := &ScheduleEval{spec: s}
	if s.Kind == SchedMMPP {
		e.rng = NewClonableRand(seed)
		e.phaseEnd = e.dwell(s.OffCycles) // start in the low state
	}
	return e
}

// Clone returns an independent copy of the evaluator, continuing the
// identical multiplier trajectory (including the MMPP dwell stream).
func (e *ScheduleEval) Clone() *ScheduleEval {
	c := *e
	if e.rng != nil {
		c.rng = e.rng.Clone()
	}
	return &c
}

// dwell draws an exponentially distributed dwell time with the given mean,
// at least one cycle.
func (e *ScheduleEval) dwell(mean float64) uint64 {
	d := e.rng.ExpFloat64() * mean
	if d < 1 {
		d = 1
	}
	if d > float64(maxScheduleCycles) {
		d = float64(maxScheduleCycles)
	}
	return uint64(d)
}

// Multiplier returns the rate multiplier at simulated time t. It is always
// finite and strictly positive for a validated spec.
func (e *ScheduleEval) Multiplier(t uint64) float64 {
	s := e.spec
	switch s.Kind {
	case "", SchedConstant:
		return 1
	case SchedBurst:
		tt := t
		if s.PeriodCycles > 0 {
			tt = t % s.PeriodCycles
		}
		if tt >= s.AtCycle && tt-s.AtCycle < s.DurationCycles {
			return s.Mult
		}
		return 1
	case SchedRamp:
		if t <= s.AtCycle {
			return s.From
		}
		if t-s.AtCycle >= s.DurationCycles {
			return s.To
		}
		frac := float64(t-s.AtCycle) / float64(s.DurationCycles)
		return s.From + (s.To-s.From)*frac
	case SchedDiurnal:
		frac := float64(t%s.PeriodCycles) / float64(s.PeriodCycles)
		return 1 + s.Amp*math.Sin(2*math.Pi*frac)
	case SchedFlash:
		if t < s.AtCycle {
			return 1
		}
		return 1 + (s.Mult-1)*math.Exp(-float64(t-s.AtCycle)/float64(s.DecayCycles))
	case SchedMMPP:
		// Catch the state machine up to t. A long idle gap can span many
		// dwells; past a generous cap the intermediate flips cannot matter
		// (nothing observed them), so resync with a single fresh dwell to
		// keep this O(1) amortised. The resync depends only on t and the rng
		// stream, so runs stay deterministic.
		for flips := 0; t >= e.phaseEnd; flips++ {
			if flips >= 4096 {
				e.phaseEnd = t + e.dwell(e.spec.OffCycles)
				e.high = false
				break
			}
			e.high = !e.high
			mean := e.spec.OffCycles
			if e.high {
				mean = e.spec.OnCycles
			}
			e.phaseEnd += e.dwell(mean)
		}
		if e.high {
			return e.spec.Mult
		}
		return e.spec.Low
	default:
		return 1
	}
}

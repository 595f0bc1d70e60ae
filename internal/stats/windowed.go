package stats

// WindowStat summarises one fixed-width time window of a windowed sample:
// the per-phase latency statistics the transient experiments report instead
// of a single run-wide tail.
type WindowStat struct {
	// Index is the window number (window i covers
	// [i*width, (i+1)*width) cycles).
	Index uint64
	// StartCycle and EndCycle are the window bounds.
	StartCycle, EndCycle uint64
	// Count is the number of observations that landed in the window.
	Count uint64
	// Mean, P95 and P99 summarise the window's observations (0 when empty).
	Mean, P95, P99 float64
	// TailMean is the mean beyond the percentile passed to Stats — the
	// paper's tail metric, per window.
	TailMean float64
}

// Windowed accumulates observations into fixed-width time windows so tail
// statistics can be reported per phase of a time-varying run (steady state vs
// burst vs recovery) rather than once over the whole run.
type Windowed struct {
	width   uint64
	samples []*Sample
}

// NewWindowed returns a windowed collector with the given window width in
// cycles (clamped to at least 1).
func NewWindowed(widthCycles uint64) *Windowed {
	if widthCycles == 0 {
		widthCycles = 1
	}
	return &Windowed{width: widthCycles}
}

// maxWindows bounds the window slice so one extreme timestamp (a
// pathological arrival clock) cannot balloon memory; observations past the
// cap fold into the final window.
const maxWindows = 1 << 20

// Add records one observation at the given cycle.
func (w *Windowed) Add(cycle uint64, v float64) {
	idx := cycle / w.width
	if idx >= maxWindows {
		idx = maxWindows - 1
	}
	for uint64(len(w.samples)) <= idx {
		w.samples = append(w.samples, nil)
	}
	if w.samples[idx] == nil {
		w.samples[idx] = NewSample(16)
	}
	w.samples[idx].Add(v)
}

// Samples returns the per-window samples, indexed by window number; entries
// are nil for windows that received no observations. The slice and samples
// are the collector's own, not copies: callers must treat them as read-only,
// and later Adds keep growing them, so hand them out only once recording has
// finished. After Sort they are then safe to query from many goroutines.
func (w *Windowed) Samples() []*Sample { return w.samples }

// Sort sorts every window's sample (see Sample.Sort), so later queries on
// them only read.
func (w *Windowed) Sort() {
	for _, s := range w.samples {
		if s != nil {
			s.Sort()
		}
	}
}

// Stats summarises every window from 0 through the last one that received an
// observation (empty windows appear with Count 0, keeping the series aligned
// across runs). tailPercentile selects the TailMean percentile.
func (w *Windowed) Stats(tailPercentile float64) []WindowStat {
	out := make([]WindowStat, len(w.samples))
	for i, s := range w.samples {
		st := WindowStat{
			Index:      uint64(i),
			StartCycle: uint64(i) * w.width,
			EndCycle:   uint64(i+1) * w.width,
		}
		if s != nil && s.Len() > 0 {
			st.Count = uint64(s.Len())
			st.Mean = s.Mean()
			if p, err := s.Percentile(95); err == nil {
				st.P95 = p
			}
			if p, err := s.Percentile(99); err == nil {
				st.P99 = p
			}
			if tm, err := s.TailMean(tailPercentile); err == nil {
				st.TailMean = tm
			}
		}
		out[i] = st
	}
	return out
}

// PoolWindows merges a range of per-window samples (e.g. all windows of one
// schedule phase, possibly across several application instances) into one
// sample for exact pooled percentiles. Nil samples are skipped.
func PoolWindows(samples []*Sample) *Sample {
	pooled := NewSample(64)
	for _, s := range samples {
		if s != nil {
			pooled.AddAll(s.Values())
		}
	}
	return pooled
}

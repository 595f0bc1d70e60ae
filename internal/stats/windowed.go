package stats

// WindowStat summarises one fixed-width time window of a recorded series:
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
	// TailMean is the mean beyond the tail percentile passed to
	// WindowStats — the paper's tail metric, per window.
	TailMean float64
}

// Series is a record of observations in the order they were made: value
// Values[i] arrived at cycle Arrivals[i]. A run's request record is one
// Series; windows, phases and pools over several records are all views of
// it, computed after the run.
type Series struct {
	Arrivals []uint64
	Values   []float64
}

// maxWindows bounds the window count so one extreme timestamp (a
// pathological arrival clock) cannot balloon memory; observations past the
// cap fold into the final window.
const maxWindows = 1 << 20

// windowIndex returns the window an arrival cycle falls in.
func windowIndex(cycle, width uint64) int {
	return int(min(cycle/width, maxWindows-1))
}

// WindowStats buckets the observations of every series by arrival cycle into
// windows of the given width (clamped to at least 1) and summarises each
// window, pooling the series: window w's statistics are those of every
// observation of every series that arrived in it. The result runs from
// window 0 through the last window any observation landed in; empty windows
// stay in place with Count 0, keeping the series aligned across runs.
// tailPercentile selects each window's TailMean.
func WindowStats(width uint64, tailPercentile float64, series ...Series) []WindowStat {
	width = max(width, 1)
	n := 0
	for _, s := range series {
		for _, at := range s.Arrivals {
			n = max(n, windowIndex(at, width)+1)
		}
	}
	windows := make([]Sample, n)
	for _, s := range series {
		for i, at := range s.Arrivals {
			windows[windowIndex(at, width)].Add(s.Values[i])
		}
	}
	out := make([]WindowStat, n)
	for i := range windows {
		s := &windows[i]
		st := WindowStat{
			Index:      uint64(i),
			StartCycle: uint64(i) * width,
			EndCycle:   uint64(i+1) * width,
			Count:      uint64(s.Len()),
		}
		if s.Len() > 0 {
			st.Mean = s.Mean()
			st.P95 = s.PercentileOrZero(95)
			st.P99 = s.PercentileOrZero(99)
			if tm, err := s.TailMean(tailPercentile); err == nil {
				st.TailMean = tm
			}
		}
		out[i] = st
	}
	return out
}

// PoolRange pools every observation of every series whose arrival window
// (same width and folding as WindowStats) lies in [from, to) into one
// sample — a schedule phase across application instances, for exact pooled
// percentiles.
func PoolRange(width uint64, from, to int, series ...Series) *Sample {
	width = max(width, 1)
	pooled := NewSample(64)
	for _, s := range series {
		for i, at := range s.Arrivals {
			if w := windowIndex(at, width); w >= from && w < to {
				pooled.Add(s.Values[i])
			}
		}
	}
	return pooled
}

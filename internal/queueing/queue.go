// Package queueing provides the open-loop request queue and latency
// accounting used for latency-critical applications: requests arrive according
// to an arrival process, wait in a FIFO queue, are serviced one at a time
// (the paper's single-worker configuration), and have their total latency
// (queueing + service) recorded.
package queueing

import "repro/internal/stats"

// Request is one latency-critical request.
type Request struct {
	// ID is the request's sequence number (0-based) within its application.
	ID uint64
	// ArrivalCycle is when the request entered the queue.
	ArrivalCycle uint64
	// StartCycle is when the server began executing it.
	StartCycle uint64
	// CompletionCycle is when it finished.
	CompletionCycle uint64
	// ServiceDemand is the request's work in instructions.
	ServiceDemand uint64
	// Warmup marks requests excluded from measurement.
	Warmup bool
}

// Latency returns the request's total latency (queueing plus service).
func (r Request) Latency() uint64 {
	if r.CompletionCycle < r.ArrivalCycle {
		return 0
	}
	return r.CompletionCycle - r.ArrivalCycle
}

// ServiceTime returns the time the request spent being serviced.
func (r Request) ServiceTime() uint64 {
	if r.CompletionCycle < r.StartCycle {
		return 0
	}
	return r.CompletionCycle - r.StartCycle
}

// FIFO is a first-in-first-out request queue.
type FIFO struct {
	items []*Request
}

// Empty reports whether the queue has no requests.
func (q *FIFO) Empty() bool { return len(q.items) == 0 }

// Push enqueues a request.
func (q *FIFO) Push(r *Request) { q.items = append(q.items, r) }

// Pop dequeues the oldest request, or returns nil if the queue is empty.
func (q *FIFO) Pop() *Request {
	if len(q.items) == 0 {
		return nil
	}
	r := q.items[0]
	// Avoid retaining popped requests in the backing array.
	copy(q.items, q.items[1:])
	q.items[len(q.items)-1] = nil
	q.items = q.items[:len(q.items)-1]
	return r
}

// Recorder collects completed requests and exposes the latency statistics the
// paper reports: mean latency, tail latency (mean beyond a percentile), and
// service-time distributions. With a window width configured it additionally
// buckets latencies by arrival cycle, so time-varying runs can report
// per-phase tails (during-burst vs steady-state) instead of one run-wide
// number.
type Recorder struct {
	latencies    *stats.Sample
	serviceTimes *stats.Sample
	windows      *stats.Windowed
	perRequest   []float64 // nil unless KeepPerRequest enabled recording
	completed    uint64
}

// NewRecorder returns an empty recorder sized for n requests.
func NewRecorder(n int) *Recorder {
	return &Recorder{
		latencies:    stats.NewSample(n),
		serviceTimes: stats.NewSample(n),
	}
}

// NewRecorderWindowed returns a recorder that also buckets latencies into
// arrival-cycle windows of the given width; windowCycles = 0 yields a plain
// recorder (identical to NewRecorder).
func NewRecorderWindowed(n int, windowCycles uint64) *Recorder {
	rec := NewRecorder(n)
	if windowCycles > 0 {
		rec.windows = stats.NewWindowed(windowCycles)
	}
	return rec
}

// Record adds a completed request; warmup requests are excluded from the
// statistics. Windowed latencies are keyed by the request's
// arrival cycle: a request that arrived during a burst counts against the
// burst's window even if it completed after the burst ended.
func (rec *Recorder) Record(r *Request) {
	if r.Warmup {
		return
	}
	rec.completed++
	if rec.perRequest != nil {
		rec.perRequest = append(rec.perRequest, float64(r.Latency()))
	}
	rec.latencies.Add(float64(r.Latency()))
	rec.serviceTimes.Add(float64(r.ServiceTime()))
	if rec.windows != nil {
		rec.windows.Add(r.ArrivalCycle, float64(r.Latency()))
	}
}

// WindowStats summarises the recorded latencies per arrival window (nil when
// windowing is off). tailPercentile selects each window's TailMean.
func (rec *Recorder) WindowStats(tailPercentile float64) []stats.WindowStat {
	if rec.windows == nil {
		return nil
	}
	return rec.windows.Stats(tailPercentile)
}

// WindowSamples returns the raw per-window latency samples backing
// WindowStats (nil when windowing is off), for exact phase pooling across
// windows and application instances. They are the recorder's own samples,
// not copies: read-only, and growing with every later Record, so hand them
// out only once the run has finished.
func (rec *Recorder) WindowSamples() []*stats.Sample {
	if rec.windows == nil {
		return nil
	}
	return rec.windows.Samples()
}

// Sort sorts every sample the recorder holds (latencies, service times and
// each latency window), so queries on them afterwards only read: a finished
// run's samples can then be shared by concurrent readers.
func (rec *Recorder) Sort() {
	rec.latencies.Sort()
	rec.serviceTimes.Sort()
	if rec.windows != nil {
		rec.windows.Sort()
	}
}

// Completed returns the number of measured (non-warmup) requests.
func (rec *Recorder) Completed() uint64 { return rec.completed }

// MeanLatency returns the mean request latency in cycles.
func (rec *Recorder) MeanLatency() float64 { return rec.latencies.Mean() }

// TailLatency returns the mean latency of requests at or beyond the given
// percentile (the paper's tail metric), or 0 if nothing was recorded.
func (rec *Recorder) TailLatency(percentile float64) float64 {
	v, err := rec.latencies.TailMean(percentile)
	if err != nil {
		return 0
	}
	return v
}

// KeepPerRequest enables order-preserving per-request recording, pre-sized
// for n measured requests. Off by default: only consumers that need to join
// latencies back to individual requests (the cluster aggregator) pay the
// extra copy.
func (rec *Recorder) KeepPerRequest(n int) {
	if rec.perRequest == nil {
		rec.perRequest = make([]float64, 0, n)
	}
}

// PerRequestLatencies returns the measured (non-warmup) request latencies in
// completion order — which, for the single-worker FIFO server every
// latency-critical slot runs, is also request-ID (arrival) order. Unlike the
// Latencies sample, which a finished run holds sorted, this slice keeps its
// order, so a cluster aggregator can join a node's i-th leaf request back to
// the query that produced it. Nil unless KeepPerRequest was called before
// recording. Read-only.
func (rec *Recorder) PerRequestLatencies() []float64 { return rec.perRequest }

// Latencies returns the latency sample for further analysis.
func (rec *Recorder) Latencies() *stats.Sample { return rec.latencies }

// ServiceTimes returns the service-time sample (no queueing delay), the
// quantity plotted in Figure 1b.
func (rec *Recorder) ServiceTimes() *stats.Sample { return rec.serviceTimes }

// MeanServiceTime returns the mean service time in cycles.
func (rec *Recorder) MeanServiceTime() float64 { return rec.serviceTimes.Mean() }

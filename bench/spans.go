package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call (or batch of calls) into a layer, recorded by the
// benchmark from outside the program. Times are nanoseconds since the
// tracer was created.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 = root
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	// Ops is how many layer calls the span covers (probes time batches so
	// the clock reads stay off the measured path).
	Ops int `json:"ops,omitempty"`
}

// tracer keeps spans in memory until the benchmark ends. A nil tracer
// records nothing, so "untraced" is a nil field rather than a flag check in
// every caller.
type tracer struct {
	workload string
	epoch    time.Time
	mu       sync.Mutex
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span under parent and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Workload: t.workload, Start: now})
	t.mu.Unlock()
	return id
}

// end closes a span, noting how many layer calls it covered.
func (t *tracer) end(id, ops int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.spans[id-1].Ops = ops
	t.mu.Unlock()
}

// record adds a span the caller timed itself (a sampled hot-path call).
func (t *tracer) record(name string, parent int, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	from := start.Sub(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Workload: t.workload,
		Start: from, End: from + d.Nanoseconds(), Ops: 1})
	t.mu.Unlock()
}

// do runs fn inside a span covering ops layer calls and returns how long
// it took.
func (t *tracer) do(name string, parent, ops int, fn func()) time.Duration {
	id := t.begin(name, parent)
	start := time.Now()
	fn()
	d := time.Since(start)
	t.end(id, ops)
	return d
}

// selfTimes derives every span's self time — its duration minus the part of
// that interval its child spans cover, counted once where children overlap
// (client goroutines run side by side under one repetition) — and sums it by
// name, in nanoseconds.
func (t *tracer) selfTimes() map[string]int64 {
	out := map[string]int64{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([][]int, len(t.spans)+1)
	for i, s := range t.spans {
		children[s.Parent] = append(children[s.Parent], i)
	}
	for _, s := range t.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return t.spans[kids[i]].Start < t.spans[kids[j]].Start })
		covered, upTo := int64(0), s.Start
		for _, k := range kids {
			from, to := max(t.spans[k].Start, upTo), min(t.spans[k].End, s.End)
			if to > from {
				covered += to - from
				upTo = to
			}
		}
		out[s.Name] += s.End - s.Start - covered
	}
	return out
}

// write dumps the spans as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

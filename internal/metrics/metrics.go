// Package metrics is the repo's dependency-free observability core: typed
// counters, gauges and fixed-bucket histograms behind a registry that exposes
// them in Prometheus text format (Registry.WriteText) and as JSON-encodable
// snapshots (Registry.Snapshot). It exists so the live cache service, the
// governor and the simulator can be instrumented without importing anything,
// and without costing the hot path an allocation.
//
// Zero-allocation contract: every write-side operation — Counter.Inc/Add,
// ShardedCounter.Add, Gauge.Set/Add, Histogram.Observe — performs no heap
// allocation and takes no lock (a single atomic RMW per call; Histogram adds
// one CAS loop for the sum). Instruments are registered once at setup time
// (registration allocates and locks freely) and written from hot paths
// thereafter. TestWriteSideDoesNotAllocate enforces the contract.
//
// Concurrency: all instrument methods are safe for concurrent use. Reads
// (Value, exposition) are atomic per field but not linearizable across
// fields or instruments — standard for scrape-based metrics.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Label is one metric dimension, fixed at registration time. Hot paths never
// touch labels: a (name, labels) pair names one pre-registered instrument.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Set overwrites the counter's value. It exists for collector-style bridges
// that mirror an authoritative monotonic counter maintained elsewhere (e.g.
// per-shard counts summed under a shard lock) into the registry at scrape
// time; direct instrumentation should only Inc/Add.
func (c *Counter) Set(v uint64) { c.v.Store(v) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// shardedSlot pads each counter slot to its own cache line so concurrent
// writers on different shards never false-share.
type shardedSlot struct {
	v atomic.Uint64
	_ [56]byte
}

// ShardedCounter is a counter striped over cache-line-padded slots for hot
// multi-writer paths where the caller has a natural shard index (the cache
// service indexes it by cache shard). Exposed as the sum over slots.
type ShardedCounter struct {
	slots []shardedSlot
	mask  uint64
}

// Add adds n on the slot the shard index maps to (shards beyond the slot
// count wrap; the count is rounded up to a power of two at registration).
func (c *ShardedCounter) Add(shard int, n uint64) {
	c.slots[uint64(shard)&c.mask].v.Add(n)
}

// Inc adds one on the slot the shard index maps to.
func (c *ShardedCounter) Inc(shard int) { c.Add(shard, 1) }

// Value returns the sum over all slots.
func (c *ShardedCounter) Value() uint64 {
	var total uint64
	for i := range c.slots {
		total += c.slots[i].v.Load()
	}
	return total
}

// Gauge is a value that can go up and down (float64, atomically updated).
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta (CAS loop; negative deltas subtract).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets chosen at registration.
// Buckets are cumulative at exposition time (Prometheus `le` semantics); the
// stored counts are per-interval so Observe touches exactly one bucket.
type Histogram struct {
	bounds []float64 // sorted upper bounds; an implicit +Inf bucket follows
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Linear scan: bucket lists are short (≤ ~20) and the branch predictor
	// does well on skewed observation streams; a binary search would cost
	// about the same and read less clearly.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// CumulativeBuckets returns the bucket upper bounds and the cumulative count
// at or below each (Prometheus semantics; the final +Inf bucket equals
// Count). The two slices are freshly allocated.
func (h *Histogram) CumulativeBuckets() (bounds []float64, cumulative []uint64) {
	bounds = append([]float64(nil), h.bounds...)
	bounds = append(bounds, math.Inf(1))
	cumulative = make([]uint64, len(bounds))
	var running uint64
	for i := range bounds {
		running += h.counts[i].Load()
		cumulative[i] = running
	}
	return bounds, cumulative
}

// DurationBuckets is a general-purpose latency bucket ladder in seconds,
// 100ns to ~10s in roughly 3x steps.
func DurationBuckets() []float64 {
	return []float64{1e-7, 3e-7, 1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1, 3, 10}
}

// metricKind is the exposition type of a family.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// child is one labelled instrument inside a family.
type child struct {
	labels []Label // sorted by key
	sig    string  // canonical label signature, the dedup + sort key
	c      *Counter
	sc     *ShardedCounter
	g      *Gauge
	h      *Histogram
}

// family groups the children sharing one metric name (and therefore one HELP
// and TYPE line).
type family struct {
	name string
	help string
	kind metricKind
	// children in sorted signature order (insertion keeps order, so
	// exposition is stable without re-sorting per scrape).
	children []*child
	bySig    map[string]*child
}

// Registry holds the registered metric families. The zero value is not
// usable; call NewRegistry.
type Registry struct {
	mu         sync.Mutex
	families   []*family
	byName     map[string]*family
	collectors []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// OnCollect registers a callback run (under the registry lock, in
// registration order) at the start of every WriteText/Snapshot.
// Collectors bridge state kept elsewhere — e.g. per-shard counters summed
// under their own locks — into registered instruments at scrape time, so hot
// paths that already maintain counters pay nothing extra for exposition.
func (r *Registry) OnCollect(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, fn)
}

// Counter registers (or fetches) the counter with the given name and labels.
// It panics on invalid names/labels or a kind clash with an existing family —
// registration happens at setup time, where a misconfigured metric is a
// programming error, not a runtime condition.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	ch := r.register(name, help, kindCounter, labels)
	if ch.c == nil {
		ch.c = &Counter{}
	}
	return ch.c
}

// ShardedCounter registers a counter striped over the given number of slots
// (rounded up to a power of two, minimum 1). Exposed identically to Counter.
func (r *Registry) ShardedCounter(name, help string, shards int, labels ...Label) *ShardedCounter {
	ch := r.register(name, help, kindCounter, labels)
	if ch.sc == nil {
		n := 1
		for n < shards {
			n <<= 1
		}
		ch.sc = &ShardedCounter{slots: make([]shardedSlot, n), mask: uint64(n - 1)}
	}
	return ch.sc
}

// Gauge registers (or fetches) the gauge with the given name and labels.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	ch := r.register(name, help, kindGauge, labels)
	if ch.g == nil {
		ch.g = &Gauge{}
	}
	return ch.g
}

// Histogram registers (or fetches) the histogram with the given name, labels
// and bucket upper bounds (must be sorted strictly ascending and finite; the
// +Inf bucket is implicit). Re-registration ignores the bounds argument and
// returns the existing instrument.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	for i, b := range bounds {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			panic(fmt.Sprintf("metrics: histogram %q bucket %d is not finite", name, i))
		}
		if i > 0 && b <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram %q buckets must be strictly ascending (bucket %d: %v <= %v)", name, i, b, bounds[i-1]))
		}
	}
	ch := r.register(name, help, kindHistogram, labels)
	if ch.h == nil {
		bs := append([]float64(nil), bounds...)
		ch.h = &Histogram{bounds: bs, counts: make([]atomic.Uint64, len(bs)+1)}
	}
	return ch.h
}

// register finds or creates the (family, child) for a (name, labels) pair.
func (r *Registry) register(name, help string, kind metricKind, labels []Label) *child {
	if !validName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	sorted := append([]Label(nil), labels...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	for i, l := range sorted {
		if !validLabelKey(l.Key) {
			panic(fmt.Sprintf("metrics: metric %q has invalid label key %q", name, l.Key))
		}
		if i > 0 && l.Key == sorted[i-1].Key {
			panic(fmt.Sprintf("metrics: metric %q repeats label key %q", name, l.Key))
		}
	}
	sig := labelSignature(sorted)

	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, bySig: make(map[string]*child)}
		r.byName[name] = f
		r.families = append(r.families, f)
	} else if f.kind != kind {
		panic(fmt.Sprintf("metrics: %q already registered as a %s, cannot re-register as a %s", name, f.kind, kind))
	}
	if ch := f.bySig[sig]; ch != nil {
		return ch
	}
	ch := &child{labels: sorted, sig: sig}
	f.bySig[sig] = ch
	// Insert keeping children sorted by signature, so exposition order is
	// stable regardless of registration order.
	at := sort.Search(len(f.children), func(i int) bool { return f.children[i].sig >= sig })
	f.children = append(f.children, nil)
	copy(f.children[at+1:], f.children[at:])
	f.children[at] = ch
	return ch
}

// labelSignature renders sorted labels into the canonical `{k="v",...}`
// string used both for dedup and for exposition.
func labelSignature(sorted []Label) string {
	if len(sorted) == 0 {
		return ""
	}
	out := "{"
	for i, l := range sorted {
		if i > 0 {
			out += ","
		}
		out += l.Key + `="` + escapeLabelValue(l.Value) + `"`
	}
	return out + "}"
}

// validName accepts Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// validLabelKey accepts Prometheus label names: [a-zA-Z_][a-zA-Z0-9_]*.
func validLabelKey(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

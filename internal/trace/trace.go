// Package trace is a lightweight structured event recorder for simulator
// runs: scheduler quanta, policy reconfigurations, fault-model activations
// and cold restarts land in a preallocated ring and export as Chrome
// trace-event JSON (load the file in chrome://tracing or
// https://ui.perfetto.dev).
//
// Recording must not perturb the run: events are fixed-size value types, the
// ring is allocated once up front, and Record is a mutex-guarded append with
// no allocation. When the ring fills, the oldest events are overwritten (the
// tail of a run is the interesting part) and Dropped counts what was lost.
// A nil *Sink is a no-op on every method, so instrumented code needs no
// conditionals beyond the nil receiver check Go gives for free.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
)

// Kind identifies what an Event describes.
type Kind uint8

const (
	// KindQuantum is one scheduler quantum: Start/Dur span the quantum in
	// cycles, A = accesses executed, B = misses observed in the quantum.
	KindQuantum Kind = iota
	// KindReconfig is a policy reconfiguration boundary: Start is the cycle
	// the boundary fired at, A = reconfiguration ordinal.
	KindReconfig
	// KindFault is a fault-model activation (e.g. a SlowWindow inflating a
	// demand draw): Start is the arrival cycle, A = drawn demand, B =
	// inflated demand.
	KindFault
	// KindRestart is a cold restart of the policy plant: Start is the cycle.
	KindRestart
)

// name returns the Chrome trace event name for a kind.
func (k Kind) name() string {
	switch k {
	case KindQuantum:
		return "quantum"
	case KindReconfig:
		return "reconfig"
	case KindFault:
		return "fault"
	case KindRestart:
		return "restart"
	}
	return "unknown"
}

// Event is one recorded occurrence. Start and Dur are in simulated cycles;
// PID/TID partition the trace into Chrome's process/thread rows (the sim
// uses PID per scheme or per cluster node, TID per app).
type Event struct {
	Kind     Kind
	PID, TID int32
	Start    uint64
	Dur      uint64
	A, B     uint64
}

// Recorder accumulates events from any number of sinks into one ring.
type Recorder struct {
	mu      sync.Mutex
	ring    []Event
	next    int // write cursor
	wrapped bool
	dropped uint64
	names   map[int32]string // pid → display name
}

// DefaultCapacity is the ring size NewRecorder uses for capacity <= 0:
// 64Ki events ≈ 3 MiB, enough for the tail of any benchmark-scale run.
const DefaultCapacity = 1 << 16

// NewRecorder returns a recorder with a preallocated ring of the given
// capacity (DefaultCapacity if <= 0).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{
		ring:  make([]Event, capacity),
		names: make(map[int32]string),
	}
}

// Sink hands one instrumented component a pid-scoped handle on a recorder.
// A nil Sink (or a Sink with a nil recorder) discards every call, so
// "tracing off" is a nil field, not a flag check.
type Sink struct {
	r   *Recorder
	pid int32
}

// NewSink returns a handle recording under the given pid.
func (r *Recorder) NewSink(pid int32) *Sink {
	if r == nil {
		return nil
	}
	return &Sink{r: r, pid: pid}
}

// SetPIDName attaches a display name to a pid (emitted as process_name
// metadata in the Chrome export).
func (r *Recorder) SetPIDName(pid int32, name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.names[pid] = name
	r.mu.Unlock()
}

// Record appends an event, overwriting the oldest when the ring is full.
func (s *Sink) Record(kind Kind, tid int32, start, dur, a, b uint64) {
	if s == nil || s.r == nil {
		return
	}
	r := s.r
	r.mu.Lock()
	if r.wrapped {
		r.dropped++
	}
	r.ring[r.next] = Event{Kind: kind, PID: s.pid, TID: tid, Start: start, Dur: dur, A: a, B: b}
	r.next++
	if r.next == len(r.ring) {
		r.next = 0
		r.wrapped = true
	}
	r.mu.Unlock()
}

// Events returns the recorded events oldest-first. The slice is a copy.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.wrapped {
		return append([]Event(nil), r.ring[:r.next]...)
	}
	out := make([]Event, 0, len(r.ring))
	out = append(out, r.ring[r.next:]...)
	return append(out, r.ring[:r.next]...)
}

// Dropped returns how many events were overwritten by ring wrap-around.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Len returns how many events are currently held.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.wrapped {
		return len(r.ring)
	}
	return r.next
}

// cyclesPerMicro converts simulated cycles to the microsecond timestamps the
// Chrome trace format requires. 1000 cycles/µs keeps integer cycle counts
// readable (1 "µs" = 1 kcycle) without float noise in the output.
const cyclesPerMicro = 1000

// WriteChromeJSON writes the trace in Chrome trace-event JSON object format:
// quanta as complete ("X") events, everything else as instant ("i") events,
// plus process_name metadata for named pids. Events are sorted by start time
// so viewers and diff-based tests see a stable order.
func (r *Recorder) WriteChromeJSON(w io.Writer) error {
	events := r.Events()
	sort.SliceStable(events, func(i, j int) bool { return events[i].Start < events[j].Start })

	bw := bufio.NewWriter(w)
	bw.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")
	first := true
	sep := func() {
		if !first {
			bw.WriteString(",\n")
		} else {
			bw.WriteString("\n")
			first = false
		}
	}

	r.mu.Lock()
	pids := make([]int32, 0, len(r.names))
	for pid := range r.names {
		pids = append(pids, pid)
	}
	names := make(map[int32]string, len(r.names))
	for pid, n := range r.names {
		names[pid] = n
	}
	r.mu.Unlock()
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
	for _, pid := range pids {
		sep()
		fmt.Fprintf(bw, `{"name":"process_name","ph":"M","pid":%d,"tid":0,"args":{"name":%q}}`, pid, names[pid])
	}

	for _, ev := range events {
		sep()
		ts := float64(ev.Start) / cyclesPerMicro
		switch ev.Kind {
		case KindQuantum:
			dur := float64(ev.Dur) / cyclesPerMicro
			fmt.Fprintf(bw, `{"name":%q,"cat":"sim","ph":"X","ts":%g,"dur":%g,"pid":%d,"tid":%d,"args":{"accesses":%d,"misses":%d}}`,
				ev.Kind.name(), ts, dur, ev.PID, ev.TID, ev.A, ev.B)
		default:
			fmt.Fprintf(bw, `{"name":%q,"cat":"sim","ph":"i","s":"t","ts":%g,"pid":%d,"tid":%d,"args":{"a":%d,"b":%d}}`,
				ev.Kind.name(), ts, ev.PID, ev.TID, ev.A, ev.B)
		}
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

// WriteFile exports the trace as Chrome trace-event JSON to path, creating or
// truncating it. The file is closed on every path, and a short write (a full
// disk surfaces at Flush or Close) comes back as an error rather than a
// silently truncated trace.
func (r *Recorder) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteChromeJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("writing trace %s: %w", path, err)
	}
	return f.Close()
}

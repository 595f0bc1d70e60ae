package workload

import "fmt"

// AddressStream is the address-generation interface the simulator steps
// applications through. Two implementations exist: the synthetic layered
// generator (*Stream) and the recorded-trace replayer (*TraceStream).
type AddressStream interface {
	// BeginRequest tells the stream a new request is starting.
	BeginRequest()
	// RequestID returns the current request sequence number.
	RequestID() uint64
	// Next returns the next LLC line address.
	Next() uint64
}

var (
	_ AddressStream = (*Stream)(nil)
	_ AddressStream = (*TraceStream)(nil)
)

// TraceStream replays a recorded address sequence — the trace-ingestion
// counterpart of Stream. The backing words are immutable and shared by every
// clone (for a single-app binary trace they alias the mmap'd file image
// directly, via the stride/offset view); the position cursor, the wrap count
// and the request counter are the stream's only mutable state, so cloning is
// a value copy: one loaded trace seeds any number of concurrent runs.
//
// The stream wraps at the end and keeps replaying from the top: simulator
// address streams must be effectively inexhaustible (a batch app contends for
// cache until the latency-critical side finishes, however long that takes).
// The wrap is deliberate and observable — Wraps() reports how many times the
// recording has been replayed — unlike an arrival replay, where running past
// the end cannot happen (sim.AppSpec.ArrivalTimes holds one time per request).
type TraceStream struct {
	words  []uint64
	stride int
	offset int
	n      int

	pos       int
	wraps     uint64
	requestID uint64
}

// NewTraceStream builds a replay stream over a strided view of words: address
// i lives at words[i*stride+offset]. The words slice is treated as immutable
// and is shared, not copied — passing a view of an mmap'd trace image makes
// every clone replay straight out of the page cache.
func NewTraceStream(words []uint64, stride, offset, n int) (*TraceStream, error) {
	if stride < 1 || offset < 0 || offset >= stride {
		return nil, fmt.Errorf("workload: trace stream stride %d / offset %d is not a valid record view", stride, offset)
	}
	if n < 1 {
		return nil, fmt.Errorf("workload: trace stream needs at least one address")
	}
	if need := (n-1)*stride + offset + 1; need > len(words) {
		return nil, fmt.Errorf("workload: trace stream view wants %d words, backing holds %d", need, len(words))
	}
	return &TraceStream{words: words, stride: stride, offset: offset, n: n}, nil
}

// NewTraceStreamAddrs builds a replay stream over a plain address slice.
//
// Deprecated: the second parameter is ignored; kept only until bench/ stops
// passing it.
func NewTraceStreamAddrs(addrs []uint64, _ uint64) (*TraceStream, error) {
	return NewTraceStream(addrs, 1, 0, len(addrs))
}

// BeginRequest implements AddressStream.
func (t *TraceStream) BeginRequest() { t.requestID++ }

// RequestID implements AddressStream.
func (t *TraceStream) RequestID() uint64 { return t.requestID }

// Next returns the next recorded address, wrapping to the start of the
// recording when it runs out.
func (t *TraceStream) Next() uint64 {
	a := t.words[t.pos*t.stride+t.offset]
	t.pos++
	if t.pos == t.n {
		t.pos = 0
		t.wraps++
	}
	return a
}

// Len returns the number of recorded addresses.
func (t *TraceStream) Len() int { return t.n }

// Pos returns the replay cursor (the index of the next address).
func (t *TraceStream) Pos() int { return t.pos }

// Wraps returns how many times the stream has replayed past the end of the
// recording.
func (t *TraceStream) Wraps() uint64 { return t.wraps }

// Clone returns an independent copy continuing the identical sequence. The
// backing words are shared (they are immutable); only the cursor state is
// copied.
func (t *TraceStream) Clone() *TraceStream {
	c := *t
	return &c
}

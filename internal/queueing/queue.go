// Package queueing holds a latency-critical slot's request record and the
// derivation of the slot's latency outputs from it. The record is one Request
// per request the slot generates, warm-up first; the simulator serves it by
// index as its single worker's FIFO queue (internal/sim), so the record is the
// only store of each request's timings.
package queueing

import "repro/internal/stats"

// Request is one latency-critical request in its slot's record: when it
// arrived, its work in instructions, and the cycles the slot's single worker
// started and completed it. The server keeps Arrival <= Start < Completion.
type Request struct {
	Arrival, Demand, Start, Completion uint64
}

// Latency returns the request's total latency (queueing plus service).
func (r Request) Latency() uint64 { return r.Completion - r.Arrival }

// ServiceTime returns the time the worker spent on the request.
func (r Request) ServiceTime() uint64 { return r.Completion - r.Start }

// Derived is what a completed record yields: the measured requests' arrival
// cycles and latencies in request order, and their latency and service-time
// samples, each built by adding in request order and then sorted, so every
// later query on them only reads.
type Derived struct {
	Record       stats.Series
	Latencies    *stats.Sample
	ServiceTimes *stats.Sample
}

// Derive computes a completed record's outputs, once, leaving out its first
// warmup requests.
func Derive(reqs []Request, warmup int) Derived {
	measured := reqs[warmup:]
	n := len(measured)
	d := Derived{
		Record:       stats.Series{Arrivals: make([]uint64, n), Values: make([]float64, n)},
		Latencies:    stats.NewSample(n),
		ServiceTimes: stats.NewSample(n),
	}
	for i, r := range measured {
		lat := float64(r.Latency())
		d.Record.Arrivals[i] = r.Arrival
		d.Record.Values[i] = lat
		d.Latencies.Add(lat)
		d.ServiceTimes.Add(float64(r.ServiceTime()))
	}
	d.Latencies.Sort()
	d.ServiceTimes.Sort()
	return d
}

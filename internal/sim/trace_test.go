package sim

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestTraceObservesWithoutPerturbing pins the tracing layer's core contract:
// attaching a recorder changes nothing numerically (the hierarchy golden
// digest still matches) while capturing the run's structure — scheduler
// quanta and policy reconfigurations — into an exportable ring.
func TestTraceObservesWithoutPerturbing(t *testing.T) {
	rec := trace.NewRecorder(trace.DefaultCapacity)
	cfg := DefaultConfig()
	cfg.Trace = rec.NewSink(0)

	res := goldenRun(t, cfg)
	if got := resultDigest(res); got != 0xdb4d74909e94b33f {
		t.Errorf("traced hierarchy golden digest = %#x, want 0xdb4d74909e94b33f (tracing must not perturb numerics)", got)
	}

	events := rec.Events()
	if len(events) == 0 {
		t.Fatal("traced run recorded no events")
	}
	var quanta, reconfigs uint64
	var lastReconfig uint64
	for _, e := range events {
		switch e.Kind {
		case trace.KindQuantum:
			quanta++
			if e.Dur == 0 {
				t.Fatalf("quantum event with zero duration: %+v", e)
			}
			if e.A < e.B {
				t.Fatalf("quantum event with more LLC misses than accesses: %+v", e)
			}
		case trace.KindReconfig:
			reconfigs++
			if e.A != reconfigs {
				t.Fatalf("reconfig ordinals out of order: got %d, want %d", e.A, reconfigs)
			}
			lastReconfig = e.A
		}
	}
	if quanta == 0 {
		t.Error("no scheduler quanta recorded")
	}
	if lastReconfig != res.Reconfigurations {
		t.Errorf("recorded %d reconfigurations, result says %d", lastReconfig, res.Reconfigurations)
	}

	var buf bytes.Buffer
	if err := rec.WriteChromeJSON(&buf); err != nil {
		t.Fatalf("WriteChromeJSON: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("exported trace has no events")
	}
}

// TestTraceRecordsFaultActivations runs the golden mix with a fail-slow
// window on the LC slot and checks every inflated service demand lands in the
// trace, confined to the window and carrying both sides of the inflation.
func TestTraceRecordsFaultActivations(t *testing.T) {
	rec := trace.NewRecorder(trace.DefaultCapacity)
	cfg := DefaultConfig()
	cfg.Seed = 42
	cfg.Trace = rec.NewSink(0)
	lc, err := workload.LCByName("masstree")
	if err != nil {
		t.Fatal(err)
	}
	batch, err := workload.BatchByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	const faultStart = 600_000
	specs := []AppSpec{
		{LC: &lc, Load: 0.2, MeanInterarrival: 60_000, DeadlineCycles: 45_000, RequestFactor: 0.05,
			SlowWindows: []SlowWindow{{StartCycle: faultStart, EndCycle: 1 << 60, Factor: 4}}},
		{Batch: &batch, ROIInstructions: 300_000},
	}
	if _, err := RunMix(cfg, specs, core.NewUbikWithSlack(0.05)); err != nil {
		t.Fatal(err)
	}
	var faults int
	for _, e := range rec.Events() {
		if e.Kind != trace.KindFault {
			continue
		}
		faults++
		if e.Start < faultStart {
			t.Fatalf("fault event before the window: %+v", e)
		}
		if e.B <= e.A {
			t.Fatalf("fault event without inflation (drawn %d, inflated %d)", e.A, e.B)
		}
	}
	if faults == 0 {
		t.Error("fail-slow run recorded no fault events")
	}
}

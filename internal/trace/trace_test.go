package trace

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestNilSinkIsNoOp(t *testing.T) {
	var s *Sink
	s.Record(KindQuantum, 0, 1, 2, 3, 4) // must not panic
	var r *Recorder
	if r.Events() != nil || r.Len() != 0 || r.Dropped() != 0 {
		t.Fatal("nil recorder should read as empty")
	}
	if r.NewSink(1) != nil {
		t.Fatal("nil recorder should hand out nil sinks")
	}
	r.SetPIDName(0, "x") // must not panic
}

func TestRecordAndEventsOrder(t *testing.T) {
	r := NewRecorder(8)
	s := r.NewSink(3)
	for i := uint64(0); i < 5; i++ {
		s.Record(KindQuantum, int32(i), i*100, 50, i, 0)
	}
	evs := r.Events()
	if len(evs) != 5 || r.Len() != 5 {
		t.Fatalf("got %d events, want 5", len(evs))
	}
	for i, ev := range evs {
		if ev.Start != uint64(i)*100 || ev.PID != 3 || ev.TID != int32(i) {
			t.Fatalf("event %d out of order or corrupted: %+v", i, ev)
		}
	}
	if r.Dropped() != 0 {
		t.Fatalf("Dropped = %d, want 0", r.Dropped())
	}
}

func TestRingWrapKeepsNewest(t *testing.T) {
	r := NewRecorder(4)
	s := r.NewSink(0)
	for i := uint64(0); i < 10; i++ {
		s.Record(KindReconfig, 0, i, 0, i, 0)
	}
	evs := r.Events()
	if len(evs) != 4 || r.Len() != 4 {
		t.Fatalf("got %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := uint64(6 + i); ev.Start != want {
			t.Fatalf("event %d Start = %d, want %d (newest 4 kept, oldest-first)", i, ev.Start, want)
		}
	}
	if r.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", r.Dropped())
	}
}

func TestRecordNoAlloc(t *testing.T) {
	r := NewRecorder(1024)
	s := r.NewSink(0)
	if allocs := testing.AllocsPerRun(1000, func() {
		s.Record(KindQuantum, 1, 2, 3, 4, 5)
	}); allocs != 0 {
		t.Fatalf("Record allocates %.1f per op, want 0", allocs)
	}
}

func TestConcurrentSinks(t *testing.T) {
	r := NewRecorder(1 << 14)
	const goroutines = 8
	const each = 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := r.NewSink(int32(g))
			for i := 0; i < each; i++ {
				s.Record(KindQuantum, 0, uint64(i), 1, 0, 0)
			}
		}(g)
	}
	wg.Wait()
	if r.Len() != goroutines*each {
		t.Fatalf("Len = %d, want %d", r.Len(), goroutines*each)
	}
}

// TestChromeJSONShape parses the export and pins the schema the CI e2e step
// asserts: top-level traceEvents array, X events with ts/dur/args, instant
// events with s:"t", process_name metadata, start-time ordering.
func TestChromeJSONShape(t *testing.T) {
	r := NewRecorder(64)
	r.SetPIDName(0, "scheme ubik")
	s := r.NewSink(0)
	s.Record(KindReconfig, 0, 5000, 0, 1, 0)
	s.Record(KindQuantum, 2, 1000, 2000, 150, 12)
	s.Record(KindFault, 1, 3000, 0, 10, 25)

	var sb strings.Builder
	if err := r.WriteChromeJSON(&sb); err != nil {
		t.Fatalf("WriteChromeJSON: %v", err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			S    string         `json:"s"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, sb.String())
	}
	if len(doc.TraceEvents) != 4 {
		t.Fatalf("got %d events, want 4 (1 metadata + 3 recorded)", len(doc.TraceEvents))
	}
	meta := doc.TraceEvents[0]
	if meta.Ph != "M" || meta.Name != "process_name" || meta.Args["name"] != "scheme ubik" {
		t.Errorf("metadata event wrong: %+v", meta)
	}
	// Recorded events sorted by start: quantum(1000), fault(3000), reconfig(5000).
	q := doc.TraceEvents[1]
	if q.Name != "quantum" || q.Ph != "X" || q.Ts != 1 || q.Dur != 2 || q.TID != 2 {
		t.Errorf("quantum event wrong: %+v", q)
	}
	if q.Args["accesses"].(float64) != 150 || q.Args["misses"].(float64) != 12 {
		t.Errorf("quantum args wrong: %v", q.Args)
	}
	f := doc.TraceEvents[2]
	if f.Name != "fault" || f.Ph != "i" || f.S != "t" || f.Ts != 3 {
		t.Errorf("fault event wrong: %+v", f)
	}
	rc := doc.TraceEvents[3]
	if rc.Name != "reconfig" || rc.Ph != "i" || rc.Ts != 5 {
		t.Errorf("reconfig event wrong: %+v", rc)
	}
	for i := 1; i < len(doc.TraceEvents); i++ {
		if doc.TraceEvents[i].Ts < doc.TraceEvents[i-1].Ts && doc.TraceEvents[i-1].Ph != "M" {
			t.Errorf("events not sorted by ts at index %d", i)
		}
	}
	if math.IsNaN(doc.TraceEvents[1].Ts) {
		t.Error("ts is NaN")
	}
}

// TestWriteFile covers the file export the cmds share: a good path round-trips
// to the same bytes WriteChromeJSON produces, an uncreatable path and a device
// that refuses the write (/dev/full: ENOSPC at flush) both come back as errors
// naming the file.
func TestWriteFile(t *testing.T) {
	r := NewRecorder(8)
	r.NewSink(0).Record(KindQuantum, 0, 1000, 2000, 3, 1)
	var want strings.Builder
	if err := r.WriteChromeJSON(&want); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.trace.json")
	if err := r.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want.String() {
		t.Errorf("WriteFile wrote %q, want %q", got, want.String())
	}

	missing := filepath.Join(t.TempDir(), "no-such-dir", "run.trace.json")
	if err := r.WriteFile(missing); err == nil || !strings.Contains(err.Error(), missing) {
		t.Errorf("WriteFile into a missing directory: got %v, want an error naming %s", err, missing)
	}
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("/dev/full not available; write-failure path not exercised")
	}
	if err := r.WriteFile("/dev/full"); err == nil || !strings.Contains(err.Error(), "/dev/full") {
		t.Errorf("WriteFile to a full device: got %v, want an error naming /dev/full", err)
	}
}

func TestKindNames(t *testing.T) {
	want := map[Kind]string{
		KindQuantum:  "quantum",
		KindReconfig: "reconfig",
		KindFault:    "fault",
		KindRestart:  "restart",
		Kind(200):    "unknown",
	}
	for k, n := range want {
		if k.name() != n {
			t.Errorf("Kind(%d).name() = %q, want %q", k, k.name(), n)
		}
	}
}

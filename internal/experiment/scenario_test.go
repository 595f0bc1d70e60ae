package experiment

import (
	"encoding/json"
	"hash/fnv"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/tracein"
)

// outcomeDigest hashes a scenario outcome's scheme results (every latency,
// window and counter, via their JSON form) so golden tests can pin a run to
// one number. JSON float formatting is the shortest exact representation, so
// any bit-level drift in the simulation changes the digest.
func outcomeDigest(t *testing.T, out *ScenarioOutcome) uint64 {
	t.Helper()
	data, err := json.Marshal(out.Schemes)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(data)
	return h.Sum64()
}

// goldenScenarioDigest pins the shipped flash-crowd-plus-node-failure
// scenario. If an intentional change to the simulator, the cluster layer or
// the scenario runner moves this number, update it here and note the change;
// anything else moving it is a determinism regression. The seven
// experiment-table digests are pinned beside it in golden_test.go.
const goldenScenarioDigest = 0x41f4dc8aa838ae5b

// TestScenarioGoldenDigest runs the shipped flash-crowd-failure scenario (one
// scheme, four nodes) serially and at workers 3, 4 and 64 — a non-divisor of
// the node count and more workers than jobs — and requires bit-identical
// outcomes, pinned to a golden digest.
func TestScenarioGoldenDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario runs are slow")
	}
	spec, err := scenario.ParseFile("../../examples/scenarios/flash-crowd-failure.json")
	if err != nil {
		t.Fatal(err)
	}
	serial, err := RunScenario(spec, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{3, 4, 64} {
		sharded, err := RunScenario(spec, workers, sim.NewWarmPool(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial.Schemes, sharded.Schemes) {
			t.Errorf("scenario outcome differs between parallelism 1 and %d (with warm pool)", workers)
		}
	}
	if got := outcomeDigest(t, serial); got != goldenScenarioDigest {
		t.Errorf("flash-crowd-failure digest = %#016x, want %#016x", got, uint64(goldenScenarioDigest))
	}
}

// TestScenarioMatrixDeterministicUnderWorkers drives the flat (scheme x node)
// job list: the shipped fail-slow scenario widened to a three-scheme matrix
// must produce the same outcome at every workers value — non-divisors of the
// job count, exactly S*M, more workers than jobs — with and without a warm
// pool, and with a trace recorder attached.
func TestScenarioMatrixDeterministicUnderWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario runs are slow")
	}
	spec, err := scenario.ParseFile("../../examples/scenarios/fail-slow.json")
	if err != nil {
		t.Fatal(err)
	}
	spec.Schemes = []scenario.Scheme{{Name: "ubik"}, {Name: "ucp"}, {Name: "lru"}}
	spec.RequestFactor = 0.02
	reference, err := RunScenario(spec, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(reference.Schemes) != 3 || reflect.DeepEqual(reference.Schemes[0].Cluster, reference.Schemes[2].Cluster) {
		t.Fatal("the matrix must hold three schemes with distinct results for the comparison to mean anything")
	}
	jobs := len(spec.Schemes) * spec.Cluster.Nodes
	for _, workers := range []int{2, 3, 5, jobs, 64} {
		for _, pool := range []*sim.WarmPool{nil, sim.NewWarmPool()} {
			out, err := RunScenario(spec, workers, pool, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(reference.Schemes, out.Schemes) {
				t.Errorf("matrix outcome differs between workers 1 and %d (pooled=%v)", workers, pool != nil)
			}
		}
	}
	rec := trace.NewRecorder(1 << 12)
	traced, err := RunScenarioTraced(spec, 5, sim.NewWarmPool(), nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(reference.Schemes, traced.Schemes) {
		t.Error("matrix outcome differs with a trace recorder attached")
	}
	if rec.Len() == 0 {
		t.Error("the traced matrix run recorded no events")
	}
}

// TestWalkthroughScenarios runs the three walkthrough files README points a
// new reader at, shrunk to a tiny request factor: each must yield one outcome
// per declared scheme, in file order, with a positive tail degradation and
// batch weighted speedup, bit-identical between workers 1 (no warm pool) and
// workers 4 (with one).
func TestWalkthroughScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario runs are slow")
	}
	for _, name := range []string{"quickstart", "colocation", "slack-sweep"} {
		t.Run(name, func(t *testing.T) {
			spec, err := scenario.ParseFile("../../examples/scenarios/" + name + ".json")
			if err != nil {
				t.Fatal(err)
			}
			spec.RequestFactor = 0.02
			serial, err := RunScenario(spec, 1, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			sharded, err := RunScenario(spec, 4, sim.NewWarmPool(), nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(serial.Schemes, sharded.Schemes) {
				t.Error("outcome differs between workers 1 and 4")
			}
			if len(serial.Schemes) != len(spec.Schemes) {
				t.Fatalf("%d outcomes for %d declared schemes", len(serial.Schemes), len(spec.Schemes))
			}
			for i, sc := range serial.Schemes {
				if sc.Scheme != spec.Schemes[i] {
					t.Errorf("outcome %d is for %+v, want %+v", i, sc.Scheme, spec.Schemes[i])
				}
				if !(sc.Degradation > 0) || !(sc.WeightedSpeedup > 0) {
					t.Errorf("%+v: degradation %v, weighted speedup %v, want both positive",
						sc.Scheme, sc.Degradation, sc.WeightedSpeedup)
				}
			}
		})
	}
}

// TestScenarioTraceReplayDeterministic exercises the trace lowering end to
// end through a real file: a generated trace on disk feeds a scenario trace
// entry, and the outcome is bit-identical between workers 1 (no warm pool)
// and workers 4 (with one) — the loaded trace is a shared immutable image and
// every run clones its own cursor.
func TestScenarioTraceReplayDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario runs are slow")
	}
	path := filepath.Join(t.TempDir(), "phase.trace")
	if _, err := tracein.GenerateFile(path, tracein.GenSpec{
		Kind: tracein.KindMem, Gen: tracein.GenPhase,
		Records: 60_000, Apps: 2, Keys: 8192, Seed: 7,
	}); err != nil {
		t.Fatal(err)
	}
	spec := scenario.Spec{
		Version:       1,
		Name:          "trace-replay",
		RequestFactor: 0.05,
		Apps: []scenario.App{
			{LC: "masstree", Load: 0.2},
			{Trace: path, TraceApp: 1},
		},
		Schemes: []scenario.Scheme{{Name: "ubik"}, {Name: "lru"}},
	}
	serial, err := RunScenario(spec, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	parallel4, err := RunScenario(spec, 4, sim.NewWarmPool(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Schemes, parallel4.Schemes) {
		t.Error("trace-replay scenario outcome differs between workers 1 and 4")
	}

	// A dangling trace path fails at experiment build time with the entry
	// named, not mid-run.
	spec.Apps[1].Trace = filepath.Join(t.TempDir(), "missing.trace")
	if _, err := RunScenario(spec, 1, nil, nil); err == nil {
		t.Error("scenario with a missing trace file was accepted")
	} else if !strings.Contains(err.Error(), "apps[1]") {
		t.Errorf("missing-trace error does not name the entry: %v", err)
	}
}

// TestScenarioFaultWindowsAnnotated checks the report layer end to end on the
// faulted scenario: the windows table exists, the node-down window rows carry
// the fault annotation, and rows outside the fault window do not.
func TestScenarioFaultWindowsAnnotated(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario runs are slow")
	}
	spec, err := scenario.ParseFile("../../examples/scenarios/flash-crowd-failure.json")
	if err != nil {
		t.Fatal(err)
	}
	out, err := RunScenario(spec, 4, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	tables := ScenarioTables(out)
	var windows *Table
	for i := range tables {
		if tables[i].ID == "scenario-windows" {
			windows = &tables[i]
		}
	}
	if windows == nil {
		t.Fatal("faulted scenario produced no scenario-windows table")
	}
	faultCol := len(windows.Header) - 1
	annotated := 0
	for _, row := range windows.Rows {
		if strings.Contains(row[faultCol], "node3:node-down") {
			annotated++
		}
	}
	if annotated == 0 {
		t.Error("no window row is annotated with the node-down fault")
	}
	if annotated == len(windows.Rows) {
		t.Error("every window row is annotated; the fault should be confined to its window")
	}
	// The HTML report highlights exactly the annotated rows.
	html := ScenarioHTML(out)
	if got := strings.Count(html, `class="fault"`); got != annotated {
		t.Errorf("HTML report highlights %d rows, want %d", got, annotated)
	}
	if !strings.Contains(ScenarioCSV(out), "faults") {
		t.Error("CSV export of a faulted scenario should include the faults column")
	}
}

// TestWindowFaults checks the window-annotation helper directly: overlap
// semantics for windowed faults, point semantics for restarts.
func TestWindowFaults(t *testing.T) {
	spec := scenario.Spec{
		Version: 1, Name: "w",
		Apps:    []scenario.App{{LC: "xapian", Load: 0.3}},
		Cluster: &scenario.Cluster{Nodes: 4},
		Schemes: []scenario.Scheme{{Name: "ubik"}},
		Faults: []scenario.Fault{
			{Kind: "node-down", Node: 3, AtCycle: 100, DurationCycles: 50},
			{Kind: "fail-slow", Node: 1, AtCycle: 120, DurationCycles: 100, Factor: 2},
			{Kind: "restart", Node: 0, AtCycle: 140},
		},
	}
	cases := []struct {
		start, end uint64
		want       []string
	}{
		{0, 100, nil}, // ends exactly at the first fault: no overlap
		{100, 130, []string{"node1:fail-slow", "node3:node-down"}},
		{130, 160, []string{"node0:restart", "node1:fail-slow", "node3:node-down"}},
		{150, 200, []string{"node1:fail-slow"}},
		{300, 400, nil},
	}
	for _, c := range cases {
		got := WindowFaults(spec, c.start, c.end)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("WindowFaults(%d, %d) = %v, want %v", c.start, c.end, got, c.want)
		}
	}
}

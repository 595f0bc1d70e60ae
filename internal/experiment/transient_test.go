package experiment

import (
	"reflect"
	"strconv"
	"testing"

	"repro/internal/workload"
)

func TestDefaultFig7ScheduleValid(t *testing.T) {
	cfg := microConfig()
	sched := DefaultFig7Schedule(cfg)
	if err := sched.Validate(); err != nil {
		t.Fatalf("default fig7 schedule invalid: %v", err)
	}
	w := transientWindowCycles(cfg)
	if sched.AtCycle%w != 0 || sched.DurationCycles%w != 0 {
		t.Errorf("default burst should align to the %d-cycle windows: %+v", w, sched)
	}
}

// TestFig7TransientDeterministicUnderParallelism extends the sharding
// contract to the transient experiment: the per-window tables must be
// bit-identical whether the five scheme runs execute serially or across four
// workers.
func TestFig7TransientDeterministicUnderParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("transient sweeps are slow")
	}
	serial := goldenTables(t, "fig7", 1).tables
	sharded := goldenTables(t, "fig7", 4).tables
	if !reflect.DeepEqual(serial, sharded) {
		t.Errorf("sharded fig7 differs from serial:\n got  %+v\n want %+v", sharded, serial)
	}
	if len(serial) != 3 {
		t.Fatalf("expected p95, p99 and phase tables, got %d", len(serial))
	}
	p95 := serial[0]
	if len(p95.Header) != 3+5 {
		t.Errorf("p95 table should have window, start, requests plus 5 scheme columns: %v", p95.Header)
	}
	if len(p95.Rows) < 4 {
		t.Errorf("expected at least 4 windows, got %d", len(p95.Rows))
	}
	var total int
	for _, row := range p95.Rows {
		n, err := strconv.Atoi(row[2])
		if err != nil {
			t.Fatalf("bad request count %q: %v", row[2], err)
		}
		total += n
	}
	if total == 0 {
		t.Errorf("windows should contain measured requests")
	}
	phase := serial[2]
	if len(phase.Rows) != 3*5 {
		t.Errorf("phase table should have steady/transient/recovery per scheme, got %d rows", len(phase.Rows))
	}
	phases := map[string]bool{}
	for _, row := range phase.Rows {
		phases[row[1]] = true
	}
	for _, want := range []string{"steady", "transient", "recovery"} {
		if !phases[want] {
			t.Errorf("phase table missing %q phase: %v", want, phases)
		}
	}
}

// TestFig7BurstConcentratesArrivals checks the experiment end to end: the
// burst phase's pooled request count per window exceeds the steady phase's.
func TestFig7BurstConcentratesArrivals(t *testing.T) {
	if testing.Short() {
		t.Skip("transient sweeps are slow")
	}
	cfg := microConfig()
	sched := DefaultFig7Schedule(cfg)
	phase := goldenTables(t, "fig7", 4).tables[2]
	perPhase := map[string]float64{}
	for _, row := range phase.Rows {
		if row[0] != "Ubik" {
			continue
		}
		n, err := strconv.Atoi(row[2])
		if err != nil {
			t.Fatal(err)
		}
		perPhase[row[1]] = float64(n)
	}
	w := transientWindowCycles(cfg)
	steadyWins := float64(sched.AtCycle / w)
	burstWins := float64(sched.DurationCycles / w)
	if steadyWins == 0 || burstWins == 0 {
		t.Fatal("schedule should span whole windows")
	}
	if perPhase["transient"]/burstWins <= perPhase["steady"]/steadyWins {
		t.Errorf("burst windows should see more arrivals per window: steady %v/%v, transient %v/%v",
			perPhase["steady"], steadyWins, perPhase["transient"], burstWins)
	}
}

func TestFlashRecoveryDeterministicAndShaped(t *testing.T) {
	if testing.Short() {
		t.Skip("transient sweeps are slow")
	}
	a := goldenTables(t, "flash", 4).tables
	b := goldenTables(t, "flash", 1).tables
	if !reflect.DeepEqual(a, b) {
		t.Errorf("flash sweep differs across parallelism:\n got  %+v\n want %+v", a, b)
	}
	if len(a) != 1 {
		t.Fatalf("expected one flash summary table, got %d", len(a))
	}
	wantRows := len(FlashMagnitudes()) * len(StandardSchemes())
	if len(a[0].Rows) != wantRows {
		t.Fatalf("expected %d rows (magnitudes x schemes), got %d", wantRows, len(a[0].Rows))
	}
	for _, row := range a[0].Rows {
		if len(row) != 6 {
			t.Fatalf("flash row shape wrong: %v", row)
		}
		for _, cell := range row[:5] {
			if cell == "" {
				t.Errorf("flash row has empty metric cells: %v", row)
			}
		}
	}
}

func TestPhaseBounds(t *testing.T) {
	burst := workload.ScheduleSpec{Kind: workload.SchedBurst, AtCycle: 2000, DurationCycles: 3000, Mult: 2}
	start, end, ok := phaseBounds(burst, 1000, 10)
	if !ok || start != 2 || end != 5 {
		t.Errorf("burst bounds = (%d, %d, %v), want (2, 5, true)", start, end, ok)
	}
	// Unaligned end rounds up.
	burst.DurationCycles = 2500
	if _, end, _ := phaseBounds(burst, 1000, 10); end != 5 {
		t.Errorf("unaligned burst end should round up to 5, got %d", end)
	}
	// Clamped to the run length.
	if _, end, _ := phaseBounds(burst, 1000, 3); end != 3 {
		t.Errorf("bounds should clamp to run length, got end %d", end)
	}
	flash := workload.ScheduleSpec{Kind: workload.SchedFlash, AtCycle: 1000, Mult: 4, DecayCycles: 1000}
	start, end, ok = phaseBounds(flash, 1000, 10)
	if !ok || start != 1 || end != 4 {
		t.Errorf("flash bounds = (%d, %d, %v), want (1, 4, true)", start, end, ok)
	}
	if _, _, ok := phaseBounds(workload.ScheduleSpec{}, 1000, 10); ok {
		t.Errorf("constant schedule has no transient phase")
	}
	repeating := workload.ScheduleSpec{Kind: workload.SchedBurst, AtCycle: 0, DurationCycles: 500, PeriodCycles: 1000, Mult: 2}
	if _, _, ok := phaseBounds(repeating, 1000, 10); ok {
		t.Errorf("repeating burst has no single transient phase")
	}
}

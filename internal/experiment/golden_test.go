package experiment

import (
	"hash/fnv"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// The golden net for the experiment tables: every experiment path's rendered
// tables are pinned to a digest of the output the re-warm-everything serial
// path produced before that path was deleted (no warm pool, no sub-mix
// sharding, parallelism 1), and the shipping path — always pooled, always
// sharded — must reproduce it at parallelism 1 and 4. One pin per path
// therefore carries both properties the checkpoint engine and the sharded
// runners claim: reuse is exact-identity memoization plus
// quiescence-verified forking, never approximation, and worker count never
// changes a simulated event.

// renderTables flattens tables to one string so differences show as a plain
// byte mismatch.
func renderTables(tables []Table) string {
	var sb strings.Builder
	for _, t := range tables {
		sb.WriteString(t.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// goldenPath is one experiment path of the golden suite: what to run, at
// which request factor, and the pinned digest of its rendered tables.
type goldenPath struct {
	name      string
	reqFactor float64
	digest    uint64
	run       func(cfg sim.Config, scale Scale) ([]Table, error)
}

// goldenPaths pins the seven experiment paths. If an intentional change to
// the simulator or an experiment moves a number, update it here and note the
// change (DESIGN.md §10 has the re-pin recipe); anything else moving it is a
// determinism regression.
var goldenPaths = []goldenPath{
	// The checkpoint-fork showcase: warm once per scheme, fork per magnitude.
	{"flash", 0.02, 0x15799a4a6099156a, FlashRecovery},
	// The load sweep memoizes the per-profile calibration across load points.
	{"fig1a", 0.02, 0x8becdb6be33b5704, Fig1LoadLatency},
	{"fig7", 0.02, 0x39d87aa5d2a12a9f, func(cfg sim.Config, scale Scale) ([]Table, error) {
		return Fig7Transient(cfg, scale, DefaultFig7Schedule(cfg))
	}},
	// Per-hierarchy baselines through the pool.
	{"fig14", 0.02, 0xf5714980e5dccd2f, Fig14HierarchySweep},
	// Node-level memoization across fan-out points.
	{"cluster", 0.04, 0x2b0ac808bda9fb39, func(cfg sim.Config, scale Scale) ([]Table, error) {
		schemes := []Scheme{StandardSchemes()[0], StandardSchemes()[4]} // LRU and Ubik
		return clusterTailTables(cfg, scale, schemes, 2, "masstree")
	}},
	// The healthy nodes repeat between the uniform and straggler variants and
	// are simulated once.
	{"hetero", 0.04, 0x9870354bfd9e2eb9, func(cfg sim.Config, scale Scale) ([]Table, error) {
		return clusterHeteroTables(cfg, scale, 2, "masstree")
	}},
	// The two Ubik variants share one pool key space, so this also guards
	// against scheme-name collisions leaking results across variants.
	{"abl-deboost", 0.03, 0x0d5800820841d7a0, func(cfg sim.Config, scale Scale) ([]Table, error) {
		table, err := AblationDeboost(cfg, scale)
		return []Table{table}, err
	}},
}

// goldenRun is one (path, parallelism) run: its tables and the warm pool it
// ran through.
type goldenRun struct {
	tables []Table
	pool   *sim.WarmPool
}

type goldenKey struct {
	name        string
	parallelism int
}

var goldenRuns = map[goldenKey]goldenRun{}

// goldenTables runs one golden path at the given parallelism — microConfig,
// microScale at the path's request factor, a fresh warm pool — once per test
// binary, so the digest test and the per-experiment shape tests assert on the
// same simulations instead of each paying for their own.
func goldenTables(t *testing.T, name string, parallelism int) goldenRun {
	t.Helper()
	key := goldenKey{name, parallelism}
	if run, ok := goldenRuns[key]; ok {
		return run
	}
	for _, path := range goldenPaths {
		if path.name != name {
			continue
		}
		scale := microScale()
		scale.RequestFactor = path.reqFactor
		scale.Parallelism = parallelism
		scale.Warm = sim.NewWarmPool()
		tables, err := path.run(microConfig(), scale)
		if err != nil {
			t.Fatalf("%s at parallelism %d: %v", name, parallelism, err)
		}
		goldenRuns[key] = goldenRun{tables: tables, pool: scale.Warm}
		return goldenRuns[key]
	}
	t.Fatalf("no golden path %q", name)
	return goldenRun{}
}

// TestExperimentTableGoldenDigests is the golden suite: every path at
// parallelism 1 and 4 must render to its pinned digest.
func TestExperimentTableGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweeps are slow")
	}
	for _, path := range goldenPaths {
		t.Run(path.name, func(t *testing.T) {
			for _, par := range []int{1, 4} {
				rendered := renderTables(goldenTables(t, path.name, par).tables)
				h := fnv.New64a()
				h.Write([]byte(rendered))
				if got := h.Sum64(); got != path.digest {
					t.Errorf("parallelism %d: digest %#016x, want %#016x:\n%s", par, got, path.digest, rendered)
				}
			}
		})
	}
}

// TestFlashWarmForkActuallyForks asserts the engine is live, not just
// falling back to a full re-warm per cell: across the magnitude sweep the
// warm pool must end up holding exactly one checkpoint per scheme.
func TestFlashWarmForkActuallyForks(t *testing.T) {
	if testing.Short() {
		t.Skip("transient sweeps are slow")
	}
	for _, par := range []int{1, 4} {
		if got, want := goldenTables(t, "flash", par).pool.CheckpointCount(), len(StandardSchemes()); got != want {
			t.Errorf("flash sweep at parallelism %d created %d warm checkpoints, want one per scheme (%d)", par, got, want)
		}
	}
}

// TestRetimeArrivalsMatchesFreshProcess pins the schedule-swap primitive at
// the workload level: a constant-schedule process retimed to a quiescent
// burst draws the same arrivals as a process built with that schedule from
// scratch, as long as draws stay inside the quiescent prefix.
func TestRetimeArrivalsMatchesFreshProcess(t *testing.T) {
	sched := workload.ScheduleSpec{Kind: workload.SchedBurst, AtCycle: 1 << 40, DurationCycles: 1 << 20, Mult: 3}
	plain, err := workload.NewScheduledArrivals(10_000, 7, workload.ScheduleSpec{}, 11)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := workload.NewScheduledArrivals(10_000, 7, sched, 11)
	if err != nil {
		t.Fatal(err)
	}
	swapped, ok := workload.RetimeArrivals(plain, sched)
	if !ok {
		t.Fatal("retiming a Poisson process to a quiescent burst should succeed")
	}
	prevA, prevB := uint64(0), uint64(0)
	for i := 0; i < 1000; i++ {
		prevA = fresh.Next(prevA)
		prevB = swapped.Next(prevB)
		if prevA != prevB {
			t.Fatalf("arrival %d: fresh %d != swapped %d", i, prevA, prevB)
		}
	}
}

package experiment

import (
	"reflect"
	"testing"
)

// TestClusterExperimentDeterministicUnderParallelism locks the cluster
// experiment's determinism contract in the style of
// TestSweepDeterministicUnderParallelism: the rendered tables are
// byte-identical at any parallelism.
func TestClusterExperimentDeterministicUnderParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster sweeps are slow")
	}
	cfg := microConfig()
	schemes := []Scheme{StandardSchemes()[3], StandardSchemes()[4]} // StaticLC and Ubik
	variants := []struct {
		name        string
		parallelism int
	}{
		{"p1", 1},
		{"p4", 4},
	}
	var reference []Table
	for _, v := range variants {
		scale := microScale()
		scale.RequestFactor = 0.04
		scale.Parallelism = v.parallelism
		tables, err := clusterTailTables(cfg, scale, schemes, 2, "masstree")
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		if reference == nil {
			reference = tables
			// Structural sanity on the first variant.
			if len(tables) != 3 {
				t.Fatalf("expected 3 cluster tables (p95, p99, node spread), got %d", len(tables))
			}
			if got := len(tables[0].Rows); got != 2 {
				t.Fatalf("2-node cluster should sweep fan-outs {1,2}, got %d rows", got)
			}
			continue
		}
		if !reflect.DeepEqual(reference, tables) {
			t.Errorf("%s: cluster tables differ from the p1 reference", v.name)
		}
	}
}

// TestClusterHeteroShape checks the straggler experiment's structure: every
// (scheme, variant, fanout) cell present, and the straggler rows report the
// weak node's leaf tail.
func TestClusterHeteroShape(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster sweeps are slow")
	}
	tables := goldenTables(t, "hetero", 4).tables
	if len(tables) != 1 {
		t.Fatalf("expected 1 hetero table, got %d", len(tables))
	}
	// 2 schemes x 2 variants x 2 fanouts.
	if got := len(tables[0].Rows); got != 8 {
		t.Fatalf("expected 8 hetero rows, got %d", got)
	}
	for _, row := range tables[0].Rows {
		if len(row) != len(tables[0].Header) {
			t.Fatalf("ragged hetero row: %v", row)
		}
		if row[3] == "0" && row[4] == "0" {
			t.Errorf("hetero row has zero query tails: %v", row)
		}
	}
}

func TestClusterFanouts(t *testing.T) {
	if got := clusterFanouts(4); !reflect.DeepEqual(got, []int{1, 2, 4}) {
		t.Errorf("clusterFanouts(4) = %v", got)
	}
	if got := clusterFanouts(1); !reflect.DeepEqual(got, []int{1}) {
		t.Errorf("clusterFanouts(1) = %v", got)
	}
}

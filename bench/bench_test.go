package main

import (
	"regexp"
	"testing"

	"repro/internal/cacheserve"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkJSONMatchesSpec pins BENCHMARK.json to the names the program
// emits and to the contract's caps.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	bf, err := loadBenchmarkFile(root)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(bf.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(bf.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(bf.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	unique := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %s", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program runs %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		unique(w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json names %d end-to-end metrics, the program emits %d", len(bf.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, m := range bf.EndToEnd {
		unique(m.Name)
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end metric %d is %s [%s] in BENCHMARK.json, %s [%s] in the program", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("no setup_s metric with unit s and better lower")
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json names %d per-layer metrics, the program emits %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		unique(m.Name)
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d is %s [%s] in BENCHMARK.json, %s [%s] in the program", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// TestTinyWorkloads runs every workload at about 1/100 size, untraced, and
// one of them traced (the ledger is the same whichever workload hosts it);
// runWorkload fails when the emitted names differ from the declared ones.
func TestTinyWorkloads(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range workloads {
		for _, traced := range tracedModes(i) {
			wr, err := runWorkload(root, w, tinySizes, 11, 0.05, traced, "")
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !wr.Correct || wr.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, wr.Correct, wr.Attempted, wr.Failed)
			}
			for _, m := range wr.Metrics {
				if !traced && m.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", w.name, m.Name)
				}
			}
		}
	}
}

// tracedModes: untraced for every workload, traced for the first only.
func tracedModes(i int) []bool {
	if i == 0 {
		return []bool{false, true}
	}
	return []bool{false}
}

// TestSamplerReachesEveryTenant is the regression the stride-64 samplers in
// cmd/cacheserved and cacheserve.Replayer show: with tenants served round
// robin, a stride sharing a factor with the tenant count only ever lands on
// some tenants.
func TestSamplerReachesEveryTenant(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	e := &env{seed: 7, nproc: 2, sz: tinySizes, root: root}
	qos, err := newQoSMix(e, 1, cacheserve.Config{SampleRate: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	defer qos.close()
	churn, err := newChurnMix(e, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer churn.close()
	for _, m := range []*liveMix{qos, churn} {
		for _, goroutines := range []int{1, 2, 4} {
			tot := m.run(e, 0, 20_000, goroutines)
			for tenant, n := range tot.sampled {
				if n == 0 {
					t.Errorf("%s, %d goroutines: tenant %d got no samples", m.name, goroutines, tenant)
				}
			}
		}
	}
	if e.failed.Load() != 0 {
		t.Errorf("%d operations failed: %v", e.failed.Load(), e.complaints)
	}
}

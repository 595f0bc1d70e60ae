package scenario

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/cluster"
)

// fullSpec exercises every field of the format at once.
func fullSpec() Spec {
	return Spec{
		Version:       1,
		Name:          "everything",
		Description:   "every field set",
		Seed:          99,
		RequestFactor: 0.1,
		Machine:       Machine{LLCMB: 8, L1KB: 16, L2KB: 128, InclusiveL2: true},
		Apps: []App{
			{LC: "masstree", Load: 0.2, Sched: "burst:at=2e6,dur=2e6,x=4"},
			{Batch: "mcf", Instances: 2},
		},
		Cluster: &Cluster{
			Nodes: 4, Fanout: 2, Quorum: 1, Balancer: "p2c", Hedge: 0.4,
			Overrides: []NodeOverride{
				{Node: 0, Weight: 1}, {Node: 1, Weight: 1}, {Node: 2, Weight: 1},
				{Node: 3, LLCMB: 6, Weight: 0.5},
			},
		},
		Schemes: []Scheme{{Name: "ubik", Slack: 0.1}, {Name: "lru"}},
		Faults: []Fault{
			{Kind: "fail-slow", Node: 0, AtCycle: 2_000_000, DurationCycles: 1_000_000, Factor: 3},
			{Kind: "restart", Node: 1, AtCycle: 4_000_000},
		},
		Report: Report{WindowCycles: 250_000, TailPercentile: 99},
	}
}

// TestRoundTripFixedPoint pins the format's central contract: Marshal and
// Parse are inverses for every valid spec, including sparse ones where every
// optional field is left to default.
func TestRoundTripFixedPoint(t *testing.T) {
	specs := map[string]Spec{
		"minimal": {
			Version: 1, Name: "tiny",
			Apps:    []App{{LC: "xapian", Load: 0.3}},
			Schemes: []Scheme{{Name: "lru"}},
		},
		"flat machine": {
			Version: 1, Name: "flat",
			Machine: Machine{L1KB: -1, L2KB: -1},
			Apps:    []App{{LC: "moses", Load: 0.25}, {Batch: "soplex"}},
			Schemes: []Scheme{{Name: "ucp"}, {Name: "staticlc"}, {Name: "onoff"}},
		},
		"everything": fullSpec(),
	}
	for name, spec := range specs {
		spec := spec
		t.Run(name, func(t *testing.T) {
			data, err := Marshal(spec)
			if err != nil {
				t.Fatal(err)
			}
			back, err := Parse(data)
			if err != nil {
				t.Fatalf("Parse(Marshal(spec)): %v", err)
			}
			if !reflect.DeepEqual(spec, back) {
				t.Errorf("round trip changed the spec:\nbefore %+v\nafter  %+v", spec, back)
			}
			// And the fixed point holds on the second pass, byte for byte.
			again, err := Marshal(back)
			if err != nil {
				t.Fatal(err)
			}
			if string(data) != string(again) {
				t.Errorf("second marshal differs:\n%s\nvs\n%s", data, again)
			}
		})
	}
}

// TestShippedScenariosRoundTrip walks every example scenario: each must
// parse, validate, and survive a Parse -> Marshal -> Parse round trip.
func TestShippedScenariosRoundTrip(t *testing.T) {
	paths, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 6 {
		t.Fatalf("expected at least 6 shipped scenarios, found %d", len(paths))
	}
	for _, path := range paths {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			spec, err := ParseFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data, err := Marshal(spec)
			if err != nil {
				t.Fatal(err)
			}
			back, err := Parse(data)
			if err != nil {
				t.Fatalf("re-parse after marshal: %v", err)
			}
			if !reflect.DeepEqual(spec, back) {
				t.Error("round trip changed the shipped spec")
			}
		})
	}
}

// TestParseErrors pins the strict-parsing error messages: unknown fields
// report their path and the accepted keys, type mismatches report the field
// and position, syntax errors report line and column.
func TestParseErrors(t *testing.T) {
	cases := []struct {
		name  string
		input string
		want  []string
	}{
		{
			"unknown top-level field",
			`{"version": 1, "name": "x", "bogus": 1, "apps": [{"lc": "xapian", "load": 0.3}], "schemes": [{"name": "lru"}]}`,
			[]string{"unknown field bogus", "the spec object accepts:", "version"},
		},
		{
			"unknown nested field with path",
			`{"version": 1, "name": "x", "apps": [{"lc": "xapian", "load": 0.3}], "schemes": [{"name": "lru"}], "cluster": {"nodes": 2, "overrides": [{"node": 1, "nosuch": 3}]}}`,
			[]string{"unknown field cluster.overrides[0].nosuch", "llc_mb", "weight"},
		},
		{
			"unknown field inside an app entry",
			`{"version": 1, "name": "x", "apps": [{"lc": "xapian", "load": 0.3, "laod": 0.4}], "schemes": [{"name": "lru"}]}`,
			[]string{"unknown field apps[0].laod", "the app object accepts:"},
		},
		{
			"the removed flat spelling is an unknown field",
			`{"version": 1, "name": "x", "machine": {"flat": true}, "apps": [{"lc": "xapian", "load": 0.3}], "schemes": [{"name": "lru"}]}`,
			[]string{"unknown field machine.flat", "l1_kb"},
		},
		{
			"type mismatch reports field and position",
			`{"version": 1, "name": "x", "apps": [{"lc": "xapian", "load": "high"}], "schemes": [{"name": "lru"}]}`,
			[]string{"field apps.load", "cannot use JSON string", "float64", "line 1"},
		},
		{
			"syntax error reports line and column",
			"{\n  \"version\": 1,\n  \"name\": \"x\",,\n}",
			[]string{"JSON syntax error at line 3"},
		},
		{
			"trailing data rejected",
			`{"version": 1, "name": "x", "apps": [{"lc": "xapian", "load": 0.3}], "schemes": [{"name": "lru"}]} {"more": 1}`,
			[]string{"trailing data"},
		},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse([]byte(c.input))
			if err == nil {
				t.Fatalf("Parse accepted %s", c.input)
			}
			for _, want := range c.want {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not mention %q", err, want)
				}
			}
		})
	}
}

// TestValidate covers the semantic checks Parse applies after decoding.
func TestValidate(t *testing.T) {
	valid := func() Spec {
		return Spec{
			Version: 1, Name: "v",
			Apps:    []App{{LC: "xapian", Load: 0.3}, {Batch: "mcf"}},
			Schemes: []Scheme{{Name: "ubik"}},
		}
	}
	cases := []struct {
		name   string
		mutate func(*Spec)
		want   string
	}{
		{"wrong version", func(s *Spec) { s.Version = 2 }, "unsupported version 2"},
		{"missing name", func(s *Spec) { s.Name = "" }, "name is required"},
		{"no apps", func(s *Spec) { s.Apps = nil }, "apps is required"},
		{"no LC app", func(s *Spec) { s.Apps = []App{{Batch: "mcf"}} }, "latency-critical"},
		{"both lc and batch", func(s *Spec) { s.Apps[0].Batch = "mcf" }, "exactly one of lc, batch and trace"},
		{"batch and trace", func(s *Spec) { s.Apps[1].Trace = "kv.trace" }, "exactly one of lc, batch and trace"},
		{"trace_app without trace", func(s *Spec) { s.Apps[1].TraceApp = 1 }, "trace_app without a trace"},
		{"negative trace_app", func(s *Spec) {
			s.Apps[1] = App{Trace: "m.trace", TraceApp: -1}
		}, "negative trace_app"},
		{"trace with load", func(s *Spec) {
			s.Apps[1] = App{Trace: "m.trace", Load: 0.3}
		}, "load and sched cannot re-time it"},
		{"trace with sched", func(s *Spec) {
			s.Apps[1] = App{Trace: "m.trace", Sched: "diurnal:period=8e6,amp=0.5"}
		}, "load and sched cannot re-time it"},
		{"trace with instances", func(s *Spec) {
			s.Apps[1] = App{Trace: "m.trace", Instances: 2}
		}, "distinct trace_app columns"},
		{"trace in a cluster", func(s *Spec) {
			s.Cluster = &Cluster{Nodes: 2}
			s.Apps[1] = App{Trace: "m.trace"}
		}, "trace replay is single-node"},
		{"unknown LC profile", func(s *Spec) { s.Apps[0].LC = "nginx" }, "nginx"},
		{"LC load out of range", func(s *Spec) { s.Apps[0].Load = 1.5 }, "load in (0,1)"},
		{"batch with a load", func(s *Spec) { s.Apps[1].Load = 0.5 }, "load and sched do not apply"},
		{"bad schedule", func(s *Spec) { s.Apps[0].Sched = "sawtooth:x=2" }, "sawtooth"},
		{"malformed schedule", func(s *Spec) { s.Apps[0].Sched = "burst:x=4" }, "schedule dur must be positive"},
		{"unknown batch profile", func(s *Spec) { s.Apps[1].Batch = "nosuchbatch" }, "unknown batch profile"},
		{"no schemes", func(s *Spec) { s.Schemes = nil }, "schemes is required"},
		{"unknown scheme", func(s *Spec) { s.Schemes[0].Name = "belady" }, "unknown scheme"},
		{"slack on non-ubik", func(s *Spec) { s.Schemes = []Scheme{{Name: "lru", Slack: 0.1}} }, "slack only applies to ubik"},
		{"faults without cluster", func(s *Spec) {
			s.Faults = []Fault{{Kind: "restart", Node: 0, AtCycle: 5}}
		}, "faults need a cluster"},
		{"cluster with two LC entries", func(s *Spec) {
			s.Cluster = &Cluster{Nodes: 2}
			s.Apps = append(s.Apps, App{LC: "masstree", Load: 0.2})
		}, "exactly one latency-critical replica"},
		{"replicated LC in a cluster", func(s *Spec) {
			s.Cluster = &Cluster{Nodes: 2}
			s.Apps[0].Instances = 3
		}, "exactly one latency-critical replica"},
		{"empty fleet", func(s *Spec) { s.Cluster = &Cluster{} }, "need at least one node, got 0"},
		{"fanout beyond fleet", func(s *Spec) { s.Cluster = &Cluster{Nodes: 2, Fanout: 3} }, "fan-out 3 exceeds the cluster size 2"},
		{"quorum beyond fanout", func(s *Spec) { s.Cluster = &Cluster{Nodes: 2, Fanout: 2, Quorum: 3} }, "quorum 3 must be in [1, fan-out 2]"},
		{"hedging a fan-out-1 query", func(s *Spec) { s.Cluster = &Cluster{Nodes: 2, Hedge: 0.3} }, "use fan-out 2, quorum 1 instead"},
		{"hedging without a spare node", func(s *Spec) { s.Cluster = &Cluster{Nodes: 2, Fanout: 2, Hedge: 0.3} }, "hedging needs a spare node"},
		{"hedge fraction out of range", func(s *Spec) { s.Cluster = &Cluster{Nodes: 3, Fanout: 2, Hedge: 1.5} }, "deadline fraction in [0,1)"},
		{"unknown balancer", func(s *Spec) { s.Cluster = &Cluster{Nodes: 2, Balancer: "dns"} }, "balancer"},
		{"override out of range", func(s *Spec) {
			s.Cluster = &Cluster{Nodes: 2, Overrides: []NodeOverride{{Node: 5, LLCMB: 6}}}
		}, "overrides[0] targets node 5"},
		{"mixed explicit and derived weights", func(s *Spec) {
			s.Cluster = &Cluster{Nodes: 3, Overrides: []NodeOverride{{Node: 1, Weight: 0.5}, {Node: 2, LLCMB: 6}}}
		}, "give 1 of 3 nodes a weight"},
		{"fault strands queries", func(s *Spec) {
			s.Cluster = &Cluster{Nodes: 2, Fanout: 2}
			s.Faults = []Fault{{Kind: "node-down", Node: 0, AtCycle: 10, DurationCycles: 100}}
		}, "healthy"},
		{"restart with duration", func(s *Spec) {
			s.Cluster = &Cluster{Nodes: 2}
			s.Faults = []Fault{{Kind: "restart", Node: 0, AtCycle: 10, DurationCycles: 5}}
		}, "instantaneous"},
		{"tiny report window", func(s *Spec) { s.Report.WindowCycles = 100 }, "latency window must be 0 (off) or at least 1024"},
		{"private level larger than the LLC", func(s *Spec) { s.Machine = Machine{LLCMB: 0.1} }, "must be smaller than the LLC"},
		{"LLC beyond the zcache cap", func(s *Spec) { s.Machine.LLCMB = 128 }, "at most 65534 lines"},
		{"node LLC beyond the zcache cap", func(s *Spec) {
			s.Cluster = &Cluster{Nodes: 2, Overrides: []NodeOverride{{Node: 1, LLCMB: 128}}}
		}, "cluster.overrides[0]: cache: a zcache holds at most 65534 lines"},
	}
	if err := valid().Validate(); err != nil {
		t.Fatalf("the base spec must validate: %v", err)
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			spec := valid()
			c.mutate(&spec)
			err := spec.Validate()
			if err == nil {
				t.Fatal("Validate accepted the mutated spec")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

// TestBadPlansFailValidationLikeTheRun pins the one-rulebook contract: every
// fleet shape or fault plan the cluster layer rejects at run time is rejected
// by scenario validation too, with the cluster layer's own message — so
// `experiments -validate` cannot pass a scenario whose run would die after
// calibration.
func TestBadPlansFailValidationLikeTheRun(t *testing.T) {
	cases := []struct {
		name    string
		cluster Cluster
		faults  []Fault
		want    string
	}{
		{"overlapping fail-slow on one node", Cluster{Nodes: 4, Fanout: 2}, []Fault{
			{Kind: "fail-slow", Node: 1, AtCycle: 2_000_000, DurationCycles: 3_000_000, Factor: 3},
			{Kind: "fail-slow", Node: 1, AtCycle: 4_000_000, DurationCycles: 3_000_000, Factor: 2},
		}, "node 1 has overlapping fail-slow windows ([2000000,5000000) and [4000000,7000000))"},
		{"duplicate restart cycle", Cluster{Nodes: 4, Fanout: 2}, []Fault{
			{Kind: "restart", Node: 1, AtCycle: 3_000_000},
			{Kind: "restart", Node: 1, AtCycle: 3_000_000},
		}, "node 1 has duplicate restart at cycle 3000000"},
		{"node-down leaves too few healthy nodes for fan-out + hedge spare", Cluster{Nodes: 4, Fanout: 3, Hedge: 0.3}, []Fault{
			{Kind: "node-down", Node: 0, AtCycle: 10, DurationCycles: 100},
		}, "leaves only 3 healthy nodes at cycle 10; queries need 4 (fan-out + hedge spare)"},
		{"unknown kind", Cluster{Nodes: 2}, []Fault{{Kind: "meteor", Node: 0, AtCycle: 1}}, `unknown kind "meteor"`},
		{"restart with a duration", Cluster{Nodes: 2}, []Fault{
			{Kind: "restart", Node: 0, AtCycle: 10, DurationCycles: 5},
		}, "is instantaneous"},
		{"fail-slow factor below 1", Cluster{Nodes: 2}, []Fault{
			{Kind: "fail-slow", Node: 0, AtCycle: 10, DurationCycles: 5, Factor: 0.5},
		}, "needs an inflation factor >= 1"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			spec := Spec{
				Version: 1, Name: "bad-plan",
				Apps:    []App{{LC: "xapian", Load: 0.3}, {Batch: "mcf"}},
				Cluster: &c.cluster, Schemes: []Scheme{{Name: "ubik"}}, Faults: c.faults,
			}
			got := spec.Validate()
			if got == nil || !strings.Contains(got.Error(), c.want) {
				t.Fatalf("scenario validation = %v, want an error mentioning %q", got, c.want)
			}
			// The spec the runner would hand cluster.Run: calibration only adds
			// node configs and stream sizes, which the shape rules never read.
			lowered := cluster.Spec{
				Nodes:  make([]cluster.NodeSpec, c.cluster.Nodes),
				Fanout: c.cluster.FanoutOrDefault(), Quorum: c.cluster.Quorum,
				Balancer:         c.cluster.BalancerKind(),
				HedgeDelayCycles: uint64(c.cluster.Hedge * 40_000),
				Faults:           spec.ClusterFaults(),
			}
			if run := lowered.Validate(); run == nil || run.Error() != got.Error() {
				t.Errorf("run-time validation = %v, scenario validation = %v; want the same message", run, got)
			}
		})
	}
}

// TestDefaults pins the accessor-resolved defaults a sparse scenario gets.
func TestDefaults(t *testing.T) {
	s := Spec{Version: 1, Name: "d", Apps: []App{{LC: "xapian", Load: 0.3}}, Schemes: []Scheme{{Name: "ubik"}}}
	if got := s.SeedOrDefault(); got != 1 {
		t.Errorf("default seed = %d, want 1", got)
	}
	if got := s.RequestFactorOrDefault(); got != 0.25 {
		t.Errorf("default request factor = %v, want 0.25", got)
	}
	if got := s.TailPercentileOrDefault(); got != 95 {
		t.Errorf("default tail percentile = %v, want 95", got)
	}
	if got := s.NodeLLCMB(0); got != 12 {
		t.Errorf("default node LLC = %v MB, want 12", got)
	}
	if got := s.Schemes[0].SlackOrDefault(); got != 0.05 {
		t.Errorf("default slack = %v, want 0.05", got)
	}
	cfg := s.BaseConfig()
	if s.WindowCycles(cfg) != 0 {
		t.Error("a steady-state scenario should not record windows by default")
	}
	s.Apps[0].Sched = "burst:at=2e6,dur=2e6,x=4"
	if got := s.WindowCycles(cfg); got != cfg.ReconfigIntervalCycles {
		t.Errorf("a time-varying scenario should window at the reconfig interval, got %d", got)
	}
	// Negative cache sizes disable the level without underflowing the line
	// count; both negative (even with inclusive_l2) is the flat machine.
	s.Machine = Machine{L1KB: -1, L2KB: -1, InclusiveL2: true}
	if hier := s.BaseConfig().Hierarchy; hier != (cache.HierarchyConfig{}) {
		t.Errorf("negative l1_kb/l2_kb must build the flat machine, got %+v", hier)
	}
}

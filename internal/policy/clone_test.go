package policy_test

import (
	"reflect"
	"testing"

	"repro/internal/monitor"
	"repro/internal/policy"
	"repro/internal/policy/policytest"
)

// The clone tests lock the state-transition corners the checkpoint engine
// must capture: OnOff's precomputed per-active-count allocation table between
// reconfigurations (the "pending transition" state its idle/active switches
// read), and UCP/StaticLC/LRU's configuration. A clone must behave exactly
// like the original from the clone point on, and mutations through either
// side must be invisible to the other.

// onOffView builds a two-LC, two-batch machine with distinguishable curves.
func onOffView() *policy.PlantView {
	return &policy.PlantView{
		Lines:       4096,
		EpochCycles: 1_000_000,
		Apps: []policy.AppObservation{
			{LatencyCritical: true, Active: true, LCTargetLines: 1024,
				Curve: policytest.LinearCurve(4096, 1024, 800, 50, 1000), MissPenalty: 100},
			{LatencyCritical: true, Active: false, LCTargetLines: 1024,
				Curve: policytest.LinearCurve(4096, 1024, 700, 40, 900), MissPenalty: 100},
			{Curve: policytest.LinearCurve(4096, 2048, 900, 100, 2000), MissPenalty: 120},
			{Curve: monitor.FlatCurve(4096, 65, 500, 1500), MissPenalty: 80},
		},
	}
}

// TestOnOffCloneCarriesPendingTransitions: clone an OnOff mid-epoch (after a
// Reconfigure built its table, before the next one) and drive both copies
// through the same idle->active transition; the resizes must match exactly.
// Then mutate the original with a different epoch and check the clone still
// answers from the old table.
func TestOnOffCloneCarriesPendingTransitions(t *testing.T) {
	v := onOffView()
	orig := policy.NewOnOff()
	apply(v, orig.Reconfigure(v))

	clone, ok := orig.Clone().(*policy.OnOff)
	if !ok {
		t.Fatalf("OnOff.Clone returned %T", orig.Clone())
	}

	// The pending transition: app 1 becomes active. Both copies must answer
	// from the same precomputed row.
	v.Apps[1].Active = true
	origResizes := orig.OnActive(1, v)
	cloneResizes := clone.OnActive(1, v)
	if !reflect.DeepEqual(origResizes, cloneResizes) {
		t.Fatalf("clone diverged on the pending on/off transition:\norig  %v\nclone %v", origResizes, cloneResizes)
	}
	if len(origResizes) == 0 {
		t.Fatal("expected resizes from an idle->active transition after a reconfiguration")
	}

	// New epoch on the original only: double the batch pressure so the table
	// genuinely changes, then check the clone still serves the old epoch.
	v2 := onOffView()
	v2.Apps[2].Curve = policytest.LinearCurve(4096, 4096, 4000, 10, 8000)
	v2.Apps[1].Active = true
	apply(v2, orig.Reconfigure(v2))

	v.Apps[1].Active = false
	cloneIdle := clone.OnIdle(1, v)
	// Re-derive what a fresh policy at the old epoch would answer.
	ref := policy.NewOnOff()
	vRef := onOffView()
	apply(vRef, ref.Reconfigure(vRef))
	vRef.Apps[1].Active = false
	refIdle := ref.OnIdle(1, vRef)
	if !reflect.DeepEqual(cloneIdle, refIdle) {
		t.Errorf("reconfiguring the original leaked into the clone's table:\nclone %v\nref   %v", cloneIdle, refIdle)
	}
}

// TestOnOffCloneBeforeFirstReconfigure: the zero-state (no precomputed
// table) must clone to a policy that, like the original, answers nil until
// its first reconfiguration.
func TestOnOffCloneBeforeFirstReconfigure(t *testing.T) {
	v := onOffView()
	orig := policy.NewOnOff()
	clone := orig.Clone()
	if got := clone.OnActive(0, v); got != nil {
		t.Errorf("clone answered %v before the first Reconfigure, want nil", got)
	}
	if got, want := clone.Reconfigure(v), orig.Reconfigure(v); !reflect.DeepEqual(got, want) {
		t.Errorf("first reconfiguration after cloning diverged:\nclone %v\norig  %v", got, want)
	}
}

// TestStatelessPolicyClones: UCP, StaticLC and LRU carry only configuration;
// their clones must reconfigure identically to the originals and be distinct
// instances.
func TestStatelessPolicyClones(t *testing.T) {
	v := onOffView()
	for _, p := range []policy.Policy{policy.NewUCP(), policy.NewStaticLC(), policy.NewLRU()} {
		c := p.Clone()
		if c.Name() != p.Name() {
			t.Errorf("clone of %s renamed itself %s", p.Name(), c.Name())
		}
		if got, want := c.Reconfigure(v), p.Reconfigure(v); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: clone reconfigured differently:\nclone %v\norig  %v", p.Name(), got, want)
		}
	}
}

// TestUCPCloneKeepsBuckets: a non-default lookahead granularity must survive
// the clone (it changes every allocation the lookahead computes).
func TestUCPCloneKeepsBuckets(t *testing.T) {
	p := policy.NewUCP()
	p.Buckets = 64
	c, ok := p.Clone().(*policy.UCP)
	if !ok {
		t.Fatalf("UCP.Clone returned %T", p.Clone())
	}
	if c.Buckets != 64 {
		t.Errorf("clone lost the bucket granularity: got %d, want 64", c.Buckets)
	}
	v := onOffView()
	if got, want := c.Reconfigure(v), p.Reconfigure(v); !reflect.DeepEqual(got, want) {
		t.Errorf("64-bucket clone reconfigured differently:\nclone %v\norig  %v", got, want)
	}
}

package workload

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRand(42)
	b := NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed must produce the same stream (diverged at %d)", i)
		}
	}
	c := NewRand(43)
	same := true
	d := NewRand(42)
	for i := 0; i < 10; i++ {
		if c.Uint64() != d.Uint64() {
			same = false
		}
	}
	if same {
		t.Errorf("different seeds should produce different streams")
	}
}

func TestSplitSeedIndependence(t *testing.T) {
	s1 := SplitSeed(1, 1)
	s2 := SplitSeed(1, 2)
	s3 := SplitSeed(2, 1)
	if s1 == s2 || s1 == s3 || s2 == s3 {
		t.Errorf("split seeds should differ: %v %v %v", s1, s2, s3)
	}
	if SplitSeed(1, 1) != s1 {
		t.Errorf("SplitSeed must be deterministic")
	}
}

func TestDeterministicDist(t *testing.T) {
	d := Deterministic{Instructions: 100}
	r := NewRand(1)
	for i := 0; i < 10; i++ {
		if d.Sample(r) != 100 {
			t.Fatalf("deterministic sample changed")
		}
	}
	if d.Mean() != 100 {
		t.Errorf("Mean = %v, want 100", d.Mean())
	}
}

func TestUniformDist(t *testing.T) {
	u := Uniform{Min: 10, Max: 20}
	r := NewRand(2)
	var sum float64
	for i := 0; i < 10000; i++ {
		v := u.Sample(r)
		if v < 10 || v > 20 {
			t.Fatalf("uniform sample %d out of range", v)
		}
		sum += float64(v)
	}
	mean := sum / 10000
	if math.Abs(mean-15) > 0.5 {
		t.Errorf("empirical mean %v far from 15", mean)
	}
	if u.Mean() != 15 {
		t.Errorf("Mean = %v, want 15", u.Mean())
	}
	// Degenerate range.
	d := Uniform{Min: 5, Max: 5}
	if d.Sample(r) != 5 {
		t.Errorf("degenerate uniform should return Min")
	}
}

func TestLogNormalDist(t *testing.T) {
	l := LogNormal{Median: 1000, Sigma: 0.8}
	r := NewRand(3)
	var sum float64
	max := uint64(0)
	for i := 0; i < 20000; i++ {
		v := l.Sample(r)
		if v < 1 {
			t.Fatalf("lognormal sample below 1")
		}
		if v > max {
			max = v
		}
		sum += float64(v)
	}
	mean := sum / 20000
	if mean < float64(1000) {
		t.Errorf("lognormal mean %v should exceed median 1000", mean)
	}
	if max > 20*1000 {
		t.Errorf("default cap of 20x median violated: max=%d", max)
	}
	if l.Mean() <= 1000 {
		t.Errorf("analytic mean should exceed median")
	}
}

func TestMultiModalDist(t *testing.T) {
	m := MultiModal{Modes: []Mode{
		{Weight: 0.5, Dist: Deterministic{Instructions: 100}},
		{Weight: 0.5, Dist: Deterministic{Instructions: 300}},
	}}
	r := NewRand(4)
	counts := map[uint64]int{}
	for i := 0; i < 10000; i++ {
		counts[m.Sample(r)]++
	}
	if len(counts) != 2 {
		t.Fatalf("expected samples from both modes, got %v", counts)
	}
	frac := float64(counts[100]) / 10000
	if frac < 0.45 || frac > 0.55 {
		t.Errorf("mode balance off: %v", frac)
	}
	if math.Abs(m.Mean()-200) > 1e-9 {
		t.Errorf("Mean = %v, want 200", m.Mean())
	}
	// Empty multimodal degrades gracefully.
	var empty MultiModal
	if empty.Sample(r) != 1 {
		t.Errorf("empty multimodal should sample 1")
	}
	if empty.Mean() != 0 {
		t.Errorf("empty multimodal mean should be 0")
	}
}

func TestExponentialAndScaledDist(t *testing.T) {
	e := Exponential{MeanInstructions: 500}
	r := NewRand(5)
	var sum float64
	for i := 0; i < 20000; i++ {
		sum += float64(e.Sample(r))
	}
	if mean := sum / 20000; math.Abs(mean-500) > 25 {
		t.Errorf("exponential empirical mean %v far from 500", mean)
	}
	s := Scaled{Base: Deterministic{Instructions: 1000}, Factor: 0.5}
	if s.Sample(r) != 500 {
		t.Errorf("scaled sample wrong")
	}
	if s.Mean() != 500 {
		t.Errorf("scaled mean wrong")
	}
	tiny := Scaled{Base: Deterministic{Instructions: 1}, Factor: 0.0001}
	if tiny.Sample(r) < 1 {
		t.Errorf("scaled sample should clamp to >= 1")
	}
}

func TestDistStrings(t *testing.T) {
	dists := []ServiceDist{
		Deterministic{Instructions: 1},
		Uniform{Min: 1, Max: 2},
		LogNormal{Median: 10, Sigma: 1},
		MultiModal{Modes: []Mode{{Weight: 1, Dist: Deterministic{Instructions: 1}}}},
		Exponential{MeanInstructions: 5},
		Scaled{Base: Deterministic{Instructions: 1}, Factor: 2},
	}
	for _, d := range dists {
		if d.String() == "" {
			t.Errorf("%T has empty String()", d)
		}
	}
}

func TestStreamDisjointAddressSpaces(t *testing.T) {
	layers := []Layer{{Name: "l", Lines: 1000, Weight: 1}}
	s0, err := NewStream(0, layers, 0, NewRand(1))
	if err != nil {
		t.Fatal(err)
	}
	s1, err := NewStream(1, layers, 0, NewRand(1))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for i := 0; i < 5000; i++ {
		seen[s0.Next()] = true
	}
	for i := 0; i < 5000; i++ {
		if seen[s1.Next()] {
			t.Fatalf("different app slots produced overlapping addresses")
		}
	}
}

func TestStreamPerRequestRemap(t *testing.T) {
	layers := []Layer{{Name: "tmp", Lines: 64, Weight: 1, PerRequest: true}}
	s, err := NewStream(0, layers, 0, NewRand(7))
	if err != nil {
		t.Fatal(err)
	}
	s.BeginRequest()
	first := map[uint64]bool{}
	for i := 0; i < 500; i++ {
		first[s.Next()] = true
	}
	s.BeginRequest()
	overlap := 0
	for i := 0; i < 500; i++ {
		if first[s.Next()] {
			overlap++
		}
	}
	if overlap > 0 {
		t.Errorf("per-request layer reused %d addresses across requests", overlap)
	}
}

func TestStreamPersistentReuse(t *testing.T) {
	layers := []Layer{{Name: "hot", Lines: 64, Weight: 1}}
	s, err := NewStream(0, layers, 0, NewRand(9))
	if err != nil {
		t.Fatal(err)
	}
	s.BeginRequest()
	first := map[uint64]bool{}
	for i := 0; i < 500; i++ {
		first[s.Next()] = true
	}
	s.BeginRequest()
	overlap := 0
	for i := 0; i < 500; i++ {
		if first[s.Next()] {
			overlap++
		}
	}
	if overlap < 400 {
		t.Errorf("persistent layer should reuse addresses across requests, overlap=%d", overlap)
	}
}

func TestStreamStreamingNeverRepeats(t *testing.T) {
	s, err := NewStream(0, nil, 1.0, NewRand(11))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for i := 0; i < 10000; i++ {
		a := s.Next()
		if seen[a] {
			t.Fatalf("streaming access repeated address %d", a)
		}
		seen[a] = true
	}
	if s.Footprint() != 0 {
		t.Errorf("pure streaming footprint should be 0")
	}
}

func TestStreamZipfSkew(t *testing.T) {
	layers := []Layer{{Name: "z", Lines: 10000, Weight: 1, ZipfS: 1.3}}
	s, err := NewStream(0, layers, 0, NewRand(13))
	if err != nil {
		t.Fatal(err)
	}
	counts := map[uint64]int{}
	for i := 0; i < 50000; i++ {
		counts[s.Next()]++
	}
	// With Zipf skew, the most popular line should get far more than the
	// uniform share (5 accesses).
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < 100 {
		t.Errorf("zipf skew looks uniform: max line count %d", max)
	}
}

func TestStreamValidation(t *testing.T) {
	if _, err := NewStream(0, []Layer{{Name: "bad", Lines: 0, Weight: 1}}, 0, NewRand(1)); err == nil {
		t.Errorf("zero-line layer should be rejected")
	}
	if _, err := NewStream(0, []Layer{{Name: "bad", Lines: 1, Weight: -1}}, 0, NewRand(1)); err == nil {
		t.Errorf("negative weight should be rejected")
	}
	if _, err := NewStream(0, nil, 0, NewRand(1)); err == nil {
		t.Errorf("stream with no weight should be rejected")
	}
	if _, err := NewStream(0, nil, -0.5, NewRand(1)); err == nil {
		t.Errorf("negative stream weight should be rejected")
	}
}

func TestStreamFootprint(t *testing.T) {
	layers := []Layer{
		{Name: "a", Lines: 100, Weight: 0.5},
		{Name: "b", Lines: 200, Weight: 0.3, PerRequest: true},
		{Name: "c", Lines: 50, Weight: 0.2},
	}
	s, err := NewStream(0, layers, 0.1, NewRand(1))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Footprint(); got != 150 {
		t.Errorf("Footprint = %d, want 150 (persistent layers only)", got)
	}
}

func TestLCProfilesValid(t *testing.T) {
	names := LCNames()
	if len(names) != 5 {
		t.Fatalf("expected 5 LC profiles, got %d", len(names))
	}
	for _, n := range names {
		p, err := LCByName(n)
		if err != nil {
			t.Fatalf("LCByName(%q): %v", n, err)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("profile %q invalid: %v", n, err)
		}
		if p.TargetLines() == 0 {
			t.Errorf("profile %q has zero target lines", n)
		}
		app, err := NewLCApp(p, 0, 1)
		if err != nil {
			t.Fatalf("NewLCApp(%q): %v", n, err)
		}
		if app.NextServiceDemand() == 0 {
			t.Errorf("profile %q produced zero service demand", n)
		}
		if app.CyclesPerAccessNoMiss() <= 0 {
			t.Errorf("profile %q has nonpositive cycles per access", n)
		}
	}
	if _, err := LCByName("nonexistent"); err == nil {
		t.Errorf("unknown LC profile should error")
	}
	if len(AllLCProfiles()) != 5 {
		t.Errorf("AllLCProfiles should return 5 profiles")
	}
}

func TestLCProfileValidation(t *testing.T) {
	bad := []LCProfile{
		{},
		{Name: "x"},
		{Name: "x", APKI: 1, BaseCPI: 1, MLP: 1},
		{Name: "x", APKI: 1, BaseCPI: 1, MLP: 1, Service: Deterministic{Instructions: 1}},
		{Name: "x", APKI: 1, BaseCPI: 1, MLP: 1, Service: Deterministic{Instructions: 1}, Requests: 1,
			Layers: []Layer{{Name: "bad", Lines: 0, Weight: 1}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestBatchProfiles(t *testing.T) {
	if len(batchProfiles) != 29 {
		t.Fatalf("expected 29 batch profiles (SPEC CPU2006), got %d", len(batchProfiles))
	}
	classCounts := map[BatchClass]int{}
	for n := range batchProfiles {
		p, err := BatchByName(n)
		if err != nil {
			t.Fatalf("BatchByName(%q): %v", n, err)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("batch profile %q invalid: %v", n, err)
		}
		classCounts[p.Class]++
		app, err := NewBatchApp(p, 3, 7)
		if err != nil {
			t.Fatalf("NewBatchApp(%q): %v", n, err)
		}
		if app.CyclesPerAccessNoMiss() <= 0 {
			t.Errorf("batch %q nonpositive cycles per access", n)
		}
	}
	for _, c := range AllBatchClasses() {
		if classCounts[c] == 0 {
			t.Errorf("class %v has no profiles", c)
		}
		if len(BatchByClass(c)) != classCounts[c] {
			t.Errorf("BatchByClass(%v) length mismatch", c)
		}
	}
	if _, err := BatchByName("notreal"); err == nil {
		t.Errorf("unknown batch profile should error")
	}
}

func TestBatchClassParsing(t *testing.T) {
	for _, c := range AllBatchClasses() {
		parsed, err := ParseBatchClass(c.String())
		if err != nil {
			t.Fatalf("ParseBatchClass(%q): %v", c.String(), err)
		}
		if parsed != c {
			t.Errorf("round trip failed for %v", c)
		}
	}
	if _, err := ParseBatchClass("x"); err == nil {
		t.Errorf("unknown class should error")
	}
	if BatchClass('q').String() != "?" {
		t.Errorf("unknown class String should be ?")
	}
}

func TestBatchJitterDistinct(t *testing.T) {
	// Profiles of the same class should not be identical clones.
	friendly := BatchByClass(CacheFriendly)
	if len(friendly) < 2 {
		t.Skip("need at least two cache-friendly profiles")
	}
	a, _ := BatchByName(friendly[0])
	b, _ := BatchByName(friendly[1])
	if a.APKI == b.APKI && a.Layers[0].Lines == b.Layers[0].Lines {
		t.Errorf("same-class profiles should be jittered apart")
	}
}

func TestPoissonArrivals(t *testing.T) {
	p, err := NewPoissonArrivals(1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	var prev uint64
	var sum float64
	n := 20000
	for i := 0; i < n; i++ {
		next := p.Next(prev)
		if next <= prev {
			t.Fatalf("arrival times must strictly increase")
		}
		sum += float64(next - prev)
		prev = next
	}
	mean := sum / float64(n)
	if math.Abs(mean-1000) > 50 {
		t.Errorf("empirical mean interarrival %v far from 1000", mean)
	}
	if _, err := NewPoissonArrivals(0, 1); err == nil {
		t.Errorf("zero interarrival should error")
	}
}

func TestUniformArrivals(t *testing.T) {
	u := UniformArrivals{Interarrival: 50}
	if u.Next(100) != 150 {
		t.Errorf("uniform arrival wrong")
	}
	z := UniformArrivals{}
	if z.Next(100) != 101 {
		t.Errorf("zero-interarrival should advance by 1")
	}
}

func TestMeanInterarrivalForLoad(t *testing.T) {
	v, err := MeanInterarrivalForLoad(1000, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-5000) > 1e-9 {
		t.Errorf("interarrival = %v, want 5000", v)
	}
	for _, bad := range []float64{0, 1, -0.5, 1.5} {
		if _, err := MeanInterarrivalForLoad(1000, bad); err == nil {
			t.Errorf("load %v should be rejected", bad)
		}
	}
	if _, err := MeanInterarrivalForLoad(0, 0.5); err == nil {
		t.Errorf("zero service time should be rejected")
	}
}

func TestServiceDemandsDeterministicPerSeed(t *testing.T) {
	p, _ := LCByName("shore")
	a, _ := NewLCApp(p, 0, 99)
	b, _ := NewLCApp(p, 0, 99)
	for i := 0; i < 50; i++ {
		if a.NextServiceDemand() != b.NextServiceDemand() {
			t.Fatalf("same seed should give identical service demands")
		}
	}
}

func TestStreamAddressesWithinLayerBounds(t *testing.T) {
	// Property: persistent-layer addresses stay within the layer's region.
	f := func(seed uint64, lines uint16) bool {
		n := uint64(lines)%4096 + 1
		layers := []Layer{{Name: "l", Lines: n, Weight: 1}}
		s, err := NewStream(2, layers, 0, NewRand(seed))
		if err != nil {
			return false
		}
		base := uint64(3) << appAddressBits
		layerBase := base + uint64(1)<<layerAddressBits
		for i := 0; i < 200; i++ {
			a := s.Next()
			if a < layerBase || a >= layerBase+n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/tracein"
)

func TestParseSize(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		err  bool
	}{
		{"1024", 1024, false},
		{"4k", 4 << 10, false},
		{"64m", 64 << 20, false},
		{"1G", 1 << 30, false},
		{"", 0, true},
		{"10x", 0, true},
	}
	for _, tc := range cases {
		got, err := parseSize(tc.in)
		if (err != nil) != tc.err || got != tc.want {
			t.Errorf("parseSize(%q) = %d, %v; want %d, err=%v", tc.in, got, err, tc.want, tc.err)
		}
	}
}

func TestParseTenants(t *testing.T) {
	specs, err := parseTenants("hot:zipf,cold:scan,svc:zipf:target=1m")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 3 {
		t.Fatalf("got %d tenants", len(specs))
	}
	if specs[0].cfg.Name != "hot" || specs[0].scan || specs[0].cfg.LatencyCritical {
		t.Fatalf("hot spec = %+v", specs[0])
	}
	if specs[1].cfg.Name != "cold" || !specs[1].scan {
		t.Fatalf("cold spec = %+v", specs[1])
	}
	if !specs[2].cfg.LatencyCritical || specs[2].cfg.TargetBytes != 1<<20 {
		t.Fatalf("svc spec = %+v", specs[2])
	}

	for _, bad := range []string{"", "nameonly", "x:tetris", "x:zipf:frob=1", "x:zipf:target=1q"} {
		if _, err := parseTenants(bad); err == nil {
			t.Errorf("parseTenants(%q) accepted bad spec", bad)
		}
	}
}

func TestRunSmoke(t *testing.T) {
	var out strings.Builder
	err := run([]string{
		"-capacity", "4m", "-ops", "40000", "-keys", "5000",
		"-goroutines", "2", "-sample", "1", "-epoch", "5ms",
		"-tenants", "hot:zipf,cold:scan",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"cacheserved:", "ops/sec aggregate", "hot", "cold", "quota"} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunUCP(t *testing.T) {
	var out strings.Builder
	err := run([]string{
		"-capacity", "2m", "-ops", "10000", "-keys", "2000",
		"-goroutines", "1", "-sample", "1", "-policy", "ucp",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "policy UCP") {
		t.Fatalf("output missing policy name:\n%s", out.String())
	}
}

// syncWriter makes the output buffer safe against the test goroutine reading
// while run's goroutine writes.
type syncWriter struct {
	mu sync.Mutex
	sb strings.Builder
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sb.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sb.String()
}

// TestRunServesObservability is the in-process version of the CI e2e step:
// start cacheserved with -http, scrape /metrics and /debug/tenants while it
// lingers, then cut the linger short.
func TestRunServesObservability(t *testing.T) {
	addrCh := make(chan string, 1)
	testHookHTTPStarted = func(addr string) { addrCh <- addr }
	testLingerInterrupt = make(chan struct{})
	defer func() {
		testHookHTTPStarted = nil
		testLingerInterrupt = nil
	}()

	var out syncWriter
	errCh := make(chan error, 1)
	go func() {
		errCh <- run([]string{
			"-capacity", "4m", "-ops", "40000", "-keys", "5000",
			"-goroutines", "2", "-sample", "1", "-epoch", "5ms",
			"-sweep", "10ms", "-http", "127.0.0.1:0", "-linger", "30s",
		}, &out)
	}()

	var addr string
	select {
	case addr = <-addrCh:
	case err := <-errCh:
		t.Fatalf("run exited before serving: %v\n%s", err, out.String())
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for the HTTP listener")
	}

	// The load may still be running; both endpoints must serve regardless.
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, family := range []string{"cacheserve_ops_total", "cacheserve_tenant_hits_total", "governor_epochs_total"} {
		if !strings.Contains(string(body), family) {
			t.Errorf("/metrics missing family %s", family)
		}
	}

	resp, err = http.Get("http://" + addr + "/debug/tenants")
	if err != nil {
		t.Fatal(err)
	}
	var payload struct {
		Tenants []struct {
			Name       string `json:"name"`
			QuotaBytes int64  `json:"quota_bytes"`
		} `json:"tenants"`
	}
	err = json.NewDecoder(resp.Body).Decode(&payload)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("/debug/tenants decode: %v", err)
	}
	if len(payload.Tenants) != 2 || payload.Tenants[0].QuotaBytes <= 0 {
		t.Fatalf("/debug/tenants payload = %+v", payload)
	}

	close(testLingerInterrupt)
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not exit after linger interrupt")
	}
	if !strings.Contains(out.String(), "serving /metrics") {
		t.Errorf("output missing serving banner:\n%s", out.String())
	}
}

// writeKVTrace generates a small kv trace file for the replay tests.
func writeKVTrace(t *testing.T, records, apps int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "kv.trace")
	if _, err := tracein.GenerateFile(path, tracein.GenSpec{
		Kind: tracein.KindKV, Gen: tracein.GenMixed,
		Records: records, Apps: apps, Keys: 2000, Seed: 3,
	}); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunTraceReplay is the in-process version of the CI trace-replay e2e
// step: replay a recorded kv trace, asking for more ops than the trace holds
// (so the recording wraps), and check the per-tenant table comes out with the
// trace-named tenants.
func TestRunTraceReplay(t *testing.T) {
	path := writeKVTrace(t, 20_000, 2)
	var out strings.Builder
	err := run([]string{
		"-capacity", "4m", "-ops", "50000", "-goroutines", "2",
		"-sample", "1", "-epoch", "5ms", "-trace-file", path,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"cacheserved: 2 tenants", "replayed 50000 ops",
		"20000-record trace, 3 passes", "t0", "t1", "quota",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
}

// TestTraceFileFlagConflicts is the contradictory-flag sweep for replay mode:
// every flag that shapes the synthetic workload is rejected alongside
// -trace-file, and broken trace files fail with actionable errors.
func TestTraceFileFlagConflicts(t *testing.T) {
	good := writeKVTrace(t, 1000, 1)
	memTrace := filepath.Join(t.TempDir(), "mem.trace")
	if _, err := tracein.GenerateFile(memTrace, tracein.GenSpec{
		Kind: tracein.KindMem, Gen: tracein.GenZipf, Records: 1000, Seed: 3,
	}); err != nil {
		t.Fatal(err)
	}
	truncated := filepath.Join(t.TempDir(), "cut.trace")
	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(truncated, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"tenants conflict", []string{"-trace-file", good, "-tenants", "hot:zipf"}, "-tenants shapes the synthetic workload"},
		{"keys conflict", []string{"-trace-file", good, "-keys", "1000"}, "-keys shapes the synthetic workload"},
		{"zipf conflict", []string{"-trace-file", good, "-zipf", "1.2"}, "-zipf shapes the synthetic workload"},
		{"setfrac conflict", []string{"-trace-file", good, "-setfrac", "0.2"}, "-setfrac shapes the synthetic workload"},
		{"seed conflict", []string{"-trace-file", good, "-seed", "7"}, "-seed shapes the synthetic workload"},
		{"valuesize conflict", []string{"-trace-file", good, "-valuesize", "64"}, "-valuesize shapes the synthetic workload"},
		{"missing file", []string{"-trace-file", filepath.Join(t.TempDir(), "nope.trace")}, "no such file"},
		{"mem trace rejected", []string{"-trace-file", memTrace}, "needs a kv trace"},
		{"truncated file", []string{"-trace-file", truncated}, "truncated"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			var out strings.Builder
			err := run(c.args, &out)
			if err == nil {
				t.Fatalf("run(%v) succeeded, want error containing %q", c.args, c.wantErr)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("error %q does not contain %q", err, c.wantErr)
			}
		})
	}
}

// TestRunFailsWhenNoSetFits: values larger than a tenant's per-shard quota
// are refused by every Set, and the run must say so and fail instead of
// reporting a 0% hit ratio as if the cache had been working.
func TestRunFailsWhenNoSetFits(t *testing.T) {
	var out strings.Builder
	err := run([]string{
		"-capacity", "1m", "-valuesize", "2000000", "-ops", "1000", "-keys", "100",
		"-shards", "8", "-goroutines", "1",
	}, &out)
	if err == nil || !strings.Contains(err.Error(), "per-shard quota of 65536 bytes") {
		t.Fatalf("run error = %v, want the per-shard quota named", err)
	}
	if !strings.Contains(err.Error(), "2000000-byte value") || !strings.Contains(err.Error(), "lower -valuesize") {
		t.Fatalf("run error = %v, want the -valuesize that sized the values quoted", err)
	}
	if !strings.Contains(out.String(), "rejected") || !strings.Contains(out.String(), " 500\n") {
		t.Fatalf("table lacks the rejected column or its count:\n%s", out.String())
	}
}

// TestRunFailsWhenTraceSetsDoNotFit: the same refused-Set check covers a
// recording. Its values were sized by whoever recorded it, so the error names
// the per-shard quota but not -valuesize.
func TestRunFailsWhenTraceSetsDoNotFit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "big.trace")
	if _, err := tracein.GenerateFile(path, tracein.GenSpec{
		Kind: tracein.KindKV, Gen: tracein.GenZipf,
		Records: 1000, Keys: 100, ValueSize: 2_000_000, Seed: 3,
	}); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	err := run([]string{"-capacity", "1m", "-shards", "8", "-ops", "1000", "-goroutines", "1", "-trace-file", path}, &out)
	if err == nil || !strings.Contains(err.Error(), `tenant "t0" stored none of its 1000 sets`) ||
		!strings.Contains(err.Error(), "per-shard quota of 131072 bytes") {
		t.Fatalf("run error = %v, want the per-shard quota named", err)
	}
	if strings.Contains(err.Error(), "valuesize") {
		t.Errorf("run error = %v quotes -valuesize, which a replay never reads", err)
	}
}

// tableRow returns the columns after the tenant name in run's per-tenant
// table: ops, hit%, p50us, p95us, p99us, evictions, quota0, quota, rejected.
func tableRow(t *testing.T, out, tenant string) []string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) == 10 && f[0] == tenant {
			return f[1:]
		}
	}
	t.Fatalf("no table row for tenant %q:\n%s", tenant, out)
	return nil
}

// TestSyntheticTrace checks the lowering of the synthetic flags: exactly ops
// records interleaved round-robin, zipf keys inside -keys, each scan tenant
// sweeping its 4×keys space in order, and the -setfrac share of
// -valuesize-byte sets drawn by the command itself.
func TestSyntheticTrace(t *testing.T) {
	specs, err := parseTenants("hot:zipf,cold:scan,svc:zipf:target=1m")
	if err != nil {
		t.Fatal(err)
	}
	const ops, keys = 30_001, 1000
	tr, err := syntheticTrace(specs, ops, keys, 1.1, 0.25, 300, 9)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != ops || tr.Apps() != len(specs) || tr.Kind() != tracein.KindKV {
		t.Fatalf("trace = %d records, %d tenants, kind %s; want %d, %d, kv", tr.Len(), tr.Apps(), tr.Kind(), ops, len(specs))
	}
	var scanned uint64
	sets := 0
	for i := 0; i < tr.Len(); i++ {
		r := tr.Record(i)
		if int(r.App) != i%len(specs) || r.Cycle != uint64(i) {
			t.Fatalf("record %d: tenant %d at cycle %d, want tenant %d at cycle %d", i, r.App, r.Cycle, i%len(specs), i)
		}
		if specs[r.App].scan {
			if want := scanned % (4 * keys); r.Key != want {
				t.Fatalf("record %d: scan key %d, want %d", i, r.Key, want)
			}
			scanned++
		} else if r.Key >= keys {
			t.Fatalf("record %d: zipf key %d outside the %d-key space", i, r.Key, keys)
		}
		if r.Op == tracein.OpSet {
			sets++
			if r.Size != 300 {
				t.Fatalf("record %d: set of %d bytes, want -valuesize 300", i, r.Size)
			}
		}
	}
	if scanned <= 4*keys {
		t.Fatalf("scan tenant issued %d ops, too few to wrap its %d keys", scanned, 4*keys)
	}
	if frac := float64(sets) / ops; frac < 0.24 || frac > 0.26 {
		t.Errorf("set share %.4f, want -setfrac 0.25 ± 0.01", frac)
	}

	tr, err = syntheticTrace(specs, 3000, keys, 1.1, 0, 128, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tr.Len(); i++ {
		if r := tr.Record(i); r.Op != tracein.OpGet {
			t.Fatalf("-setfrac 0: record %d is %s, want only gets", i, r.Op)
		}
	}
	if _, err := syntheticTrace(specs, 2, keys, 1.1, 0.1, 128, 9); err == nil {
		t.Error("2 ops over 3 tenants accepted")
	}
}

// TestRunScanMissesAtAnyGoroutineCount: a scan tenant whose 4×keys space is
// swept once must read 0% hits at any -goroutines. A driver in which every
// goroutine ran its own copy of the scan from key 0 hit its siblings' inserts.
func TestRunScanMissesAtAnyGoroutineCount(t *testing.T) {
	var out strings.Builder
	err := run([]string{
		"-capacity", "4m", "-ops", "40000", "-keys", "5000",
		"-goroutines", "4", "-epoch", "1h", "-tenants", "hot:zipf,scan:scan",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if hit := tableRow(t, out.String(), "scan")[1]; hit != "0.0%" {
		t.Fatalf("scan tenant read %s hits, want 0.0%%:\n%s", hit, out.String())
	}
}

// TestRunDeterministic pins a single-goroutine run whose governor never
// fires: the trace, the cache's shard placement and its LRU are all fixed by
// the flags, so two runs print the same ops, hit%, evictions and quotas.
func TestRunDeterministic(t *testing.T) {
	args := []string{
		"-capacity", "1m", "-shards", "8", "-ops", "60000", "-keys", "5000",
		"-goroutines", "1", "-epoch", "1h", "-tenants", "lc:zipf:target=256k,b:zipf,s:scan",
	}
	want := map[string][]string{
		// ops, hit%, evictions, quota0, quota
		"lc": {"20000", "76.8%", "1242", "349525", "349525"},
		"b":  {"20000", "77.0%", "1163", "349525", "349525"},
		"s":  {"20000", "0.0%", "18264", "349525", "349525"},
	}
	for rep := 0; rep < 2; rep++ {
		var out strings.Builder
		if err := run(args, &out); err != nil {
			t.Fatal(err)
		}
		for tenant, w := range want {
			row := tableRow(t, out.String(), tenant)
			if got := []string{row[0], row[1], row[5], row[6], row[7]}; strings.Join(got, " ") != strings.Join(w, " ") {
				t.Errorf("run %d, tenant %s: ops/hit%%/evictions/quota0/quota = %v, want %v", rep, tenant, got, w)
			}
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out strings.Builder
	for _, args := range [][]string{
		{"-policy", "fifo"},
		{"-tenants", "bad"},
		{"-capacity", "10q"},
		{"-zipf", "0.5"},
		{"-ops", "0"},
		{"-setfrac", "1.7"},
		{"-setfrac", "-0.1"},
		{"-setfrac", "0", "-valuesize", "64"},
	} {
		if err := run(args, &out); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

// Command cacheserved demonstrates the live cache service: it builds a
// sharded multi-tenant cache, attaches a Ubik or UCP governor to the sampled
// UMON feeds, drives a concurrent synthetic workload against it, and prints
// per-tenant throughput, hit ratios, latency percentiles and the quota
// trajectory the governor produced.
//
// Tenants are declared as a comma-separated spec, one entry per tenant:
//
//	name:zipf              batch tenant, zipf-skewed reuse over -keys keys
//	name:scan              batch tenant, sequential scan (no reuse)
//	name:zipf:target=1m    latency-critical tenant with a byte reserve target
//
// Example:
//
//	cacheserved -capacity 64m -tenants 'hot:zipf,cold:scan' -policy ubik -ops 2000000
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cacheserve"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/stats"
	"repro/internal/tracein"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cacheserved:", err)
		os.Exit(1)
	}
}

// tenantSpec is one parsed -tenants entry.
type tenantSpec struct {
	cfg  cacheserve.TenantConfig
	scan bool
}

// parseSize parses a byte count with an optional k/m/g suffix.
func parseSize(s string) (int64, error) {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "k"), strings.HasSuffix(s, "K"):
		mult, s = 1<<10, s[:len(s)-1]
	case strings.HasSuffix(s, "m"), strings.HasSuffix(s, "M"):
		mult, s = 1<<20, s[:len(s)-1]
	case strings.HasSuffix(s, "g"), strings.HasSuffix(s, "G"):
		mult, s = 1<<30, s[:len(s)-1]
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad size %q", s)
	}
	return n * mult, nil
}

// parseTenants parses the -tenants spec.
func parseTenants(spec string) ([]tenantSpec, error) {
	var out []tenantSpec
	for _, item := range strings.Split(spec, ",") {
		fields := strings.Split(strings.TrimSpace(item), ":")
		if len(fields) < 2 || fields[0] == "" {
			return nil, fmt.Errorf("tenant %q: want name:workload[:target=bytes]", item)
		}
		ts := tenantSpec{cfg: cacheserve.TenantConfig{Name: fields[0]}}
		switch fields[1] {
		case "zipf":
		case "scan":
			ts.scan = true
		default:
			return nil, fmt.Errorf("tenant %q: workload must be zipf or scan", item)
		}
		for _, opt := range fields[2:] {
			val, ok := strings.CutPrefix(opt, "target=")
			if !ok {
				return nil, fmt.Errorf("tenant %q: unknown option %q", item, opt)
			}
			bytes, err := parseSize(val)
			if err != nil {
				return nil, fmt.Errorf("tenant %q: %v", item, err)
			}
			ts.cfg.LatencyCritical = true
			ts.cfg.TargetBytes = bytes
		}
		out = append(out, ts)
	}
	return out, nil
}

// latencySampleStride keeps latency measurement off the hot path: one in this
// many operations is timed. 61 is prime, so it is coprime with every tenant
// count: the driver picks tenant i%tenants, and a power-of-two stride would
// only ever time tenant 0.
const latencySampleStride = 61

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("cacheserved", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		capacity   = fs.String("capacity", "64m", "total cache capacity in bytes (k/m/g suffixes)")
		shards     = fs.Int("shards", 0, "shard count (0 = 4×GOMAXPROCS, rounded to a power of two)")
		tenants    = fs.String("tenants", "hot:zipf,cold:scan", "tenant spec: name:zipf|scan[:target=bytes],...")
		polName    = fs.String("policy", "ubik", "governing policy: ubik or ucp")
		sample     = fs.Float64("sample", 0.01, "fraction of accesses fed to the per-tenant UMONs")
		epoch      = fs.Duration("epoch", 100*time.Millisecond, "governor reconfiguration period")
		keys       = fs.Int("keys", 200_000, "key-space size per zipf tenant (scan tenants use 4x)")
		valueSize  = fs.Int("valuesize", 128, "value size in bytes")
		zipfS      = fs.Float64("zipf", 1.1, "zipf skew for zipf tenants (> 1)")
		ops        = fs.Int("ops", 2_000_000, "total operations across all goroutines")
		goroutines = fs.Int("goroutines", runtime.GOMAXPROCS(0), "concurrent load goroutines")
		setFrac    = fs.Float64("setfrac", 0.1, "fraction of operations that are writes")
		seed       = fs.Int64("seed", 1, "workload RNG seed")
		traceFile  = fs.String("trace-file", "", "replay a recorded kv trace (tracegen -kind kv, or internal/tracein CSV/binary) instead of the synthetic workload; the recording fixes the tenants, keys and op mix")
		httpAddr   = fs.String("http", "", "serve /metrics, /debug/tenants and /debug/pprof on this address (e.g. :8080; empty = off)")
		linger     = fs.Duration("linger", 0, "with -http: keep serving this long after the load completes")
		sweep      = fs.Duration("sweep", 0, "background expiry sweep interval (0 = lazy expiry only)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	var (
		specs []tenantSpec
		tr    *tracein.Trace
	)
	if *traceFile != "" {
		for _, f := range []string{"tenants", "keys", "zipf", "setfrac", "seed"} {
			if explicit[f] {
				return fmt.Errorf("-%s shapes the synthetic workload and conflicts with -trace-file: the recording already fixes the tenants, keys and op mix (drop -%s or -trace-file)", f, f)
			}
		}
		var err error
		if tr, err = tracein.Open(*traceFile); err != nil {
			return err
		}
		defer tr.Close()
		// The recording defines the tenant set: one plain batch tenant per
		// trace column, named t0..tN-1.
		for t := 0; t < tr.Apps(); t++ {
			specs = append(specs, tenantSpec{cfg: cacheserve.TenantConfig{Name: fmt.Sprintf("t%d", t)}})
		}
	} else {
		var err error
		if specs, err = parseTenants(*tenants); err != nil {
			return err
		}
	}
	capBytes, err := parseSize(*capacity)
	if err != nil {
		return err
	}
	if *goroutines < 1 || *ops < 1 || *keys < 1 {
		return fmt.Errorf("-goroutines, -ops and -keys must be >= 1")
	}
	if *zipfS <= 1 {
		return fmt.Errorf("-zipf must be > 1")
	}

	tcfgs := make([]cacheserve.TenantConfig, len(specs))
	for i, s := range specs {
		tcfgs[i] = s.cfg
	}
	var reg *metrics.Registry
	if *httpAddr != "" {
		reg = metrics.NewRegistry()
	}
	cache, err := cacheserve.New(cacheserve.Config{
		CapacityBytes: capBytes,
		Shards:        *shards,
		SampleRate:    *sample,
		SweepInterval: *sweep,
		Metrics:       reg,
		Tenants:       tcfgs,
	})
	if err != nil {
		return err
	}
	defer cache.Close()

	var pol policy.Policy
	switch *polName {
	case "ubik":
		pol = core.NewUbik()
	case "ucp":
		pol = policy.NewUCP()
	default:
		return fmt.Errorf("-policy must be ubik or ucp, got %q", *polName)
	}
	gov, err := cacheserve.NewGovernor(cache, pol, cacheserve.GovernorConfig{Epoch: *epoch})
	if err != nil {
		return err
	}

	if *httpAddr != "" {
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			return err
		}
		srv := &http.Server{Handler: cacheserve.NewHTTPHandler(cache, gov, reg)}
		go srv.Serve(ln)
		defer srv.Close()
		fmt.Fprintf(out, "serving /metrics, /debug/tenants, /debug/pprof on http://%s\n", ln.Addr())
		if testHookHTTPStarted != nil {
			testHookHTTPStarted(ln.Addr().String())
		}
	}

	fmt.Fprintf(out, "cacheserved: %d tenants, %s capacity, %d shards, policy %s, sampling %.2g\n",
		cache.NumTenants(), *capacity, cache.NumShards(), pol.Name(), *sample)
	startQuotas := quotaVector(cache)

	totalOps := 0
	merged := make([]*stats.Sample, len(specs))
	tenantOps := make([]uint64, len(specs))
	tenantHits := make([]uint64, len(specs))
	tenantRejected := make([]uint64, len(specs))
	var elapsed time.Duration

	if tr != nil {
		// Replay mode: all per-record preparation (key rendering, value
		// sizing) happens in NewReplayer, before the timer starts.
		rp, err := cacheserve.NewReplayer(cache, tr)
		if err != nil {
			return err
		}
		gov.Start()
		defer gov.Stop()
		start := time.Now()
		ts, err := rp.Run(*ops, *goroutines)
		elapsed = time.Since(start)
		gov.Stop()
		if err != nil {
			return err
		}
		var gets, sets uint64
		for t := range ts {
			merged[t] = ts[t].Latency
			tenantOps[t] = ts[t].Gets + ts[t].Sets
			tenantHits[t] = ts[t].Hits
			tenantRejected[t] = ts[t].Rejected
			totalOps += int(tenantOps[t])
			gets += ts[t].Gets
			sets += ts[t].Sets
		}
		fmt.Fprintf(out, "replayed %d ops (%d gets, %d sets; %d-record trace, %d passes) in %v (%.2fM ops/sec aggregate, %d goroutines), %d governor epochs\n",
			totalOps, gets, sets, tr.Len(), (*ops+tr.Len()-1)/tr.Len(),
			elapsed.Round(time.Millisecond),
			float64(totalOps)/elapsed.Seconds()/1e6, *goroutines, gov.Epochs())
	} else {
		// Pre-render every tenant's key space so formatting stays off the hot path.
		tenantKeys := make([][]string, len(specs))
		for t, s := range specs {
			n := *keys
			if s.scan {
				n *= 4
			}
			ks := make([]string, n)
			for i := range ks {
				ks[i] = fmt.Sprintf("%s-%07d", s.cfg.Name, i)
			}
			tenantKeys[t] = ks
		}

		gov.Start()
		defer gov.Stop()

		type workerStats struct {
			ops, hits, rejected []uint64
			lat                 []*stats.Sample
		}
		perWorker := make([]workerStats, *goroutines)
		opsPer := *ops / *goroutines
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < *goroutines; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				ws := &perWorker[w]
				ws.ops = make([]uint64, len(specs))
				ws.hits = make([]uint64, len(specs))
				ws.rejected = make([]uint64, len(specs))
				ws.lat = make([]*stats.Sample, len(specs))
				for t := range ws.lat {
					ws.lat[t] = stats.NewSample(opsPer / latencySampleStride / len(specs))
				}
				rng := rand.New(rand.NewSource(*seed + int64(w)*7919))
				zipfs := make([]*rand.Zipf, len(specs))
				scanPos := make([]int, len(specs))
				for t, s := range specs {
					if !s.scan {
						zipfs[t] = rand.NewZipf(rng, *zipfS, 1, uint64(len(tenantKeys[t])-1))
					}
				}
				val := make([]byte, *valueSize)
				for i := 0; i < opsPer; i++ {
					t := i % len(specs)
					var key string
					if specs[t].scan {
						key = tenantKeys[t][scanPos[t]]
						scanPos[t] = (scanPos[t] + 1) % len(tenantKeys[t])
					} else {
						key = tenantKeys[t][zipfs[t].Uint64()]
					}
					timed := i%latencySampleStride == 0
					var begin time.Time
					if timed {
						begin = time.Now()
					}
					// A miss fills, as a real service would.
					if rng.Float64() >= *setFrac {
						if _, ok := cache.Get(t, key); ok {
							ws.hits[t]++
						} else if cache.Set(t, key, val, 0) != nil {
							ws.rejected[t]++
						}
					} else if cache.Set(t, key, val, 0) != nil {
						ws.rejected[t]++
					}
					if timed {
						ws.lat[t].Add(float64(time.Since(begin).Nanoseconds()))
					}
					ws.ops[t]++
				}
			}(w)
		}
		wg.Wait()
		elapsed = time.Since(start)
		gov.Stop()

		for t := range specs {
			merged[t] = stats.NewSample(1024)
			for w := range perWorker {
				if perWorker[w].lat == nil {
					continue
				}
				merged[t].AddAll(perWorker[w].lat[t].Values())
				tenantOps[t] += perWorker[w].ops[t]
				tenantHits[t] += perWorker[w].hits[t]
				tenantRejected[t] += perWorker[w].rejected[t]
				totalOps += int(perWorker[w].ops[t])
			}
		}

		fmt.Fprintf(out, "ran %d ops in %v (%.2fM ops/sec aggregate, %d goroutines), %d governor epochs\n",
			totalOps, elapsed.Round(time.Millisecond),
			float64(totalOps)/elapsed.Seconds()/1e6, *goroutines, gov.Epochs())
	}
	fmt.Fprintf(out, "%-12s %10s %8s %9s %9s %9s %10s %12s %12s %10s\n",
		"tenant", "ops", "hit%", "p50us", "p95us", "p99us", "evictions", "quota0", "quota", "rejected")
	endQuotas := quotaVector(cache)
	cstats := cache.Stats()
	for t, s := range specs {
		p50 := merged[t].PercentileOrZero(50) / 1e3
		p95 := merged[t].PercentileOrZero(95) / 1e3
		p99 := merged[t].PercentileOrZero(99) / 1e3
		hitPct := 0.0
		if tenantOps[t] > 0 {
			hitPct = 100 * float64(tenantHits[t]) / float64(tenantOps[t])
		}
		fmt.Fprintf(out, "%-12s %10d %7.1f%% %9.1f %9.1f %9.1f %10d %12d %12d %10d\n",
			s.cfg.Name, tenantOps[t], hitPct, p50, p95, p99,
			cstats[t].CapacityEvictions, startQuotas[t], endQuotas[t], tenantRejected[t])
	}
	if tr == nil {
		for t, s := range specs {
			if tenantRejected[t] > 0 && cstats[t].Sets == 0 {
				return fmt.Errorf("tenant %q stored none of its %d sets: an entry with a %d-byte value exceeds its per-shard quota of %d bytes (%d bytes over %d shards); raise -capacity or lower -valuesize",
					s.cfg.Name, tenantRejected[t], *valueSize, endQuotas[t]/int64(cache.NumShards()), endQuotas[t], cache.NumShards())
			}
		}
	}

	if *httpAddr != "" && *linger > 0 {
		// Keep the observability endpoints (and the governor: the cache still
		// serves, even if the synthetic load is done) up for scrapes.
		fmt.Fprintf(out, "lingering %v for scrapes\n", *linger)
		gov.Start()
		select {
		case <-time.After(*linger):
		case <-testLingerInterrupt:
		}
		gov.Stop()
	}
	return nil
}

// Test seams: main_test scrapes the live endpoints through these. Both are
// nil/never-closed in production.
var (
	testHookHTTPStarted func(addr string)
	testLingerInterrupt chan struct{}
)

// quotaVector snapshots every tenant's byte quota.
func quotaVector(c *cacheserve.Cache) []int64 {
	out := make([]int64, c.NumTenants())
	for t := range out {
		out[t] = c.TenantQuota(t)
	}
	return out
}

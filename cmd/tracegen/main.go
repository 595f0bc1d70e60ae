// Command tracegen writes a derived trace file for the replay paths: a
// mem-kind trace drives simulator address streams (a scenario's trace
// entries, run by experiments -scenario), a kv-kind trace drives the live
// cache service (cacheserved -trace-file). Every generator is fully
// deterministic in its flags, so CI and benchmarks regenerate traces on
// demand instead of checking in fixtures.
//
// Examples:
//
//	tracegen -out phase.trace -kind mem -gen phase -records 2000000 -apps 2
//	tracegen -out kv.trace -kind kv -gen mixed -records 2000000 -apps 2 -keys 400000
//	tracegen -out small.csv -kind mem -gen zipf -records 1000 -csv
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/tracein"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

// run is the testable entry point.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		outPath   = fs.String("out", "", "output trace file (required; a .csv suffix or -csv selects the text format)")
		kindName  = fs.String("kind", "mem", "record kind: mem (cycle,app,addr) or kv (cycle,tenant,op,key,size)")
		genName   = fs.String("gen", "zipf", "access pattern: zipf, scan, phase or mixed")
		records   = fs.Int("records", 1_000_000, "trace length in records")
		apps      = fs.Int("apps", 1, "app columns (mem) or tenants (kv); records interleave round-robin")
		keys      = fs.Uint64("keys", 65536, "per-app key-space size")
		zipfS     = fs.Float64("zipf", 1.1, "zipf skew for zipf/mixed/phase draws (> 1)")
		setFrac   = fs.Float64("setfrac", 0.1, "kv only: fraction of records that are sets")
		valueSize = fs.Uint("valuesize", 128, "kv only: value size of generated sets in bytes")
		phases    = fs.Int("phases", 4, "phase generator only: disjoint working sets to walk through")
		meanGap   = fs.Uint64("meangap", 100, "mean cycle gap between consecutive records")
		seed      = fs.Uint64("seed", 1, "generator seed")
		csv       = fs.Bool("csv", false, "write the text format regardless of the -out suffix")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *outPath == "" {
		return fmt.Errorf("-out is required")
	}
	kind, err := tracein.ParseKind(*kindName)
	if err != nil {
		return err
	}
	gen, err := tracein.ParseGen(*genName)
	if err != nil {
		return err
	}
	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	if kind == tracein.KindMem {
		for _, f := range []string{"setfrac", "valuesize"} {
			if explicit[f] {
				return fmt.Errorf("-%s shapes kv records and would be ignored by a mem trace; drop it or set -kind kv", f)
			}
		}
	}
	// The generator reads a zero as "use the default", so a zero here would be
	// replaced, not honoured.
	if *setFrac == 0 {
		return fmt.Errorf("-setfrac 0 would become the generator's default 0.1 (a generated kv trace always carries sets); pass a fraction in (0, 1]")
	}
	if *valueSize == 0 {
		return fmt.Errorf("-valuesize 0 would become the generator's default 128 bytes; pass a size >= 1")
	}
	if gen != tracein.GenPhase && explicit["phases"] {
		return fmt.Errorf("-phases only shapes the phase generator; drop it or set -gen phase")
	}
	tr, err := tracein.GenerateTrace(tracein.GenSpec{
		Kind: kind, Gen: gen,
		Records: *records, Apps: *apps, Keys: *keys,
		ZipfS: *zipfS, SetFrac: *setFrac, ValueSize: uint32(*valueSize),
		Phases: *phases, MeanGap: *meanGap, Seed: *seed,
	})
	if err != nil {
		return err
	}
	path := *outPath
	if *csv && !strings.HasSuffix(path, ".csv") {
		// WriteFile picks the format by suffix; honor the explicit override by
		// writing the text encoding directly.
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := tr.WriteCSVTo(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	} else if err := tr.WriteFile(path); err != nil {
		return err
	}
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "tracegen: wrote %d %s records (%d apps, gen %s, seed %d) to %s (%d bytes)\n",
		tr.Len(), tr.Kind(), tr.Apps(), gen, *seed, path, info.Size())
	return nil
}

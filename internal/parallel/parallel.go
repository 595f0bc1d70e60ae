// Package parallel provides the deterministic fork-join helper the simulator
// and the experiment runners shard work with. Work items are identified by
// index and workers write results into index-addressed slots, so the output
// of a sharded computation is bit-identical no matter how many workers ran it
// — the property the determinism-under-parallelism tests lock in.
package parallel

import (
	"sync"
	"sync/atomic"
)

// For runs fn(i) for every i in [0, n), distributing indices over at most
// workers goroutines, and returns the first (lowest-index) error. workers <= 1
// runs inline. fn must confine its side effects to index-addressed state; the
// scheduling order across workers is arbitrary.
//
// Once any fn fails, workers stop claiming new indices. Indices are claimed in
// increasing order, so every index below a failed one is already in flight and
// the lowest-index error is still the one returned.
//
// Callers fan a whole dependency phase out as one flat list: For is never
// entered with workers > 1 from inside another For body, and a worker budget
// is never split between nested levels (DESIGN.md §4).
func For(n, workers int, fn func(int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	next.Store(-1)
	var failed atomic.Bool
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				if errs[i] = fn(i); errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

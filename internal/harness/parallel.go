package harness

// Parallel experiment execution. Every sweep and figure in this package is
// a grid of fully independent (config, seed) simulation cells, so the
// run-plan layer here fans the cells out over a bounded worker pool and
// merges the per-cell results back in deterministic cell/seed order. The
// merge path is shared with the sequential runner, which makes the merged
// stats.Sample values (means, CIs, counters, consistency verdicts)
// bit-for-bit identical regardless of worker count or completion order.

import (
	"fmt"
	"runtime"
	"sync"
)

// Runner executes experiment grids with a fixed degree of parallelism.
// The zero value and a nil *Runner both run sequentially.
type Runner struct {
	workers int
}

// Parallel returns a Runner that fans independent simulation cells out
// over the given number of workers. workers <= 0 selects
// runtime.GOMAXPROCS(0), i.e. one worker per available CPU.
func Parallel(workers int) *Runner {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Runner{workers: workers}
}

// Sequential returns a single-worker Runner.
func Sequential() *Runner { return &Runner{workers: 1} }

// Workers reports the degree of parallelism.
func (r *Runner) Workers() int {
	if r == nil || r.workers < 1 {
		return 1
	}
	return r.workers
}

// RunJobs executes n independent jobs over a pool of workers and returns
// their results in index order. When any job fails, the error of the
// lowest-indexed failing job is returned — independent of completion
// order — so parallel and sequential runs fail identically. It is the
// fan-out primitive behind every grid in this package and is exported for
// other deterministic-merge consumers (internal/explore fans random-walk
// schedules over it).
func RunJobs[T any](workers, n int, job func(int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			out[i], errs[i] = job(i)
			if errs[i] != nil {
				return nil, errs[i]
			}
		}
		return out, nil
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range jobs {
				out[i], errs[i] = job(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// runGrid runs one simulation per (cell, seed) pair — cells*len(seeds)
// independent jobs — and merges each cell's per-seed results in seed
// order. configFor builds the cell's base config (its Seed field is
// overwritten); label names the cell in errors.
func (r *Runner) runGrid(cells int, seeds []uint64,
	configFor func(cell int) Config, label func(cell int) string) ([]*Result, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("harness: no seeds")
	}
	nS := len(seeds)
	flat, err := RunJobs(r.Workers(), cells*nS, func(i int) (*Result, error) {
		cfg := configFor(i / nS)
		cfg.Seed = seeds[i%nS]
		res, err := Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: seed %d: %w", label(i/nS), cfg.Seed, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	merged := make([]*Result, cells)
	for c := 0; c < cells; c++ {
		merged[c] = mergeSeedResults(seeds, flat[c*nS:(c+1)*nS])
	}
	return merged, nil
}

// RunSeeds runs the experiment across several seeds — in parallel when the
// Runner has more than one worker — and merges the per-initiation samples,
// shrinking confidence intervals the way the paper's "large number of
// samples" does. Results are identical to the sequential path.
func (r *Runner) RunSeeds(cfg Config, seeds []uint64) (*Result, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("harness: no seeds")
	}
	results, err := RunJobs(r.Workers(), len(seeds), func(i int) (*Result, error) {
		c := cfg
		c.Seed = seeds[i]
		res, err := Run(c)
		if err != nil {
			return nil, fmt.Errorf("harness: seed %d: %w", seeds[i], err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	return mergeSeedResults(seeds, results), nil
}

// mergeSeedResults folds per-seed results into one, always walking in seed
// order so the merged samples do not depend on completion order. Errors
// recorded inside a Result are annotated with the seed that produced them:
// a consistency violation from seed k used to be indistinguishable from
// seed 0, and the first failing seed is kept deterministically.
func mergeSeedResults(seeds []uint64, results []*Result) *Result {
	var merged *Result
	for i, res := range results {
		seed := seeds[i]
		if res.ConsistencyErr != nil {
			res.ConsistencyErr = fmt.Errorf("seed %d: %w", seed, res.ConsistencyErr)
		}
		if res.DiskLineErr != nil {
			res.DiskLineErr = fmt.Errorf("seed %d: %w", seed, res.DiskLineErr)
		}
		if res.PayloadVerifyErr != nil {
			res.PayloadVerifyErr = fmt.Errorf("seed %d: %w", seed, res.PayloadVerifyErr)
		}
		for j, e := range res.ClusterErrors {
			res.ClusterErrors[j] = fmt.Errorf("seed %d: %w", seed, e)
		}
		if merged == nil {
			merged = res
			continue
		}
		merged.Initiations += res.Initiations
		merged.Tentative.Merge(&res.Tentative)
		merged.Mutable.Merge(&res.Mutable)
		merged.Redundant.Merge(&res.Redundant)
		merged.SysMsgs.Merge(&res.SysMsgs)
		merged.DurationSec.Merge(&res.DurationSec)
		merged.BlockedSec.Merge(&res.BlockedSec)
		merged.CompMsgs += res.CompMsgs
		merged.TotalSysMsgs += res.TotalSysMsgs
		merged.SimulatedEvents += res.SimulatedEvents
		merged.TotalStable += res.TotalStable
		merged.TotalMutableCk += res.TotalMutableCk
		merged.Intervals += res.Intervals
		merged.DozeWakeups += res.DozeWakeups
		merged.ConsistencyOK = merged.ConsistencyOK && res.ConsistencyOK
		if merged.ConsistencyErr == nil {
			merged.ConsistencyErr = res.ConsistencyErr
		}
		merged.DiskLineOK = merged.DiskLineOK && res.DiskLineOK
		if merged.DiskLineErr == nil {
			merged.DiskLineErr = res.DiskLineErr
		}
		merged.PayloadSaves += res.PayloadSaves
		merged.PayloadLogicalBytes += res.PayloadLogicalBytes
		merged.PayloadNewBytes += res.PayloadNewBytes
		// The save-side counters sum across seeds; the store-shape fields
		// (segments, live chunks, disk bytes) stay the first seed's.
		ps, rs := &merged.PayloadStats, &res.PayloadStats
		ps.Saves += rs.Saves
		ps.LogicalBytes += rs.LogicalBytes
		ps.NewBytes += rs.NewBytes
		ps.NewChunks += rs.NewChunks
		ps.DedupChunks += rs.DedupChunks
		ps.DeltaChunks += rs.DeltaChunks
		ps.SelfDedupChunks += rs.SelfDedupChunks
		ps.CrossDedupChunks += rs.CrossDedupChunks
		merged.PayloadVerifyOK = merged.PayloadVerifyOK && res.PayloadVerifyOK
		if merged.PayloadVerifyErr == nil {
			merged.PayloadVerifyErr = res.PayloadVerifyErr
		}
		merged.ClusterErrors = append(merged.ClusterErrors, res.ClusterErrors...)
	}
	if merged.Tentative.Mean() > 0 {
		merged.RedundantRatio = merged.Redundant.Mean() / merged.Tentative.Mean()
	}
	if merged.PayloadLogicalBytes > 0 {
		merged.PayloadRatio = float64(merged.PayloadNewBytes) / float64(merged.PayloadLogicalBytes)
	}
	return merged
}

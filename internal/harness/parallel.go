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

// runCells runs one simulation per (cell, seed) pair — cells*len(seeds)
// independent jobs — and returns the results cell by cell, each cell's in
// seed order. configFor builds the cell's base config (its Seed field is
// overwritten); label names the cell in errors. With strict, a failed
// verdict (Result.Err) fails the cell like a run error.
func (r *Runner) runCells(cells int, seeds []uint64, configFor func(cell int) Config,
	label func(cell int) string, strict bool) ([]*Result, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("harness: no seeds")
	}
	nS := len(seeds)
	return RunJobs(r.Workers(), cells*nS, func(i int) (*Result, error) {
		cfg := configFor(i / nS)
		cfg.Seed = seeds[i%nS]
		res, err := Run(cfg)
		if err == nil && strict {
			err = res.Err()
		}
		if err != nil {
			return nil, fmt.Errorf("%s: seed %d: %w", label(i/nS), cfg.Seed, err)
		}
		return res, nil
	})
}

// runGrid is runCells with each cell's per-seed results merged in seed
// order.
func (r *Runner) runGrid(cells int, seeds []uint64,
	configFor func(cell int) Config, label func(cell int) string) ([]*Result, error) {
	flat, err := r.runCells(cells, seeds, configFor, label, false)
	if err != nil {
		return nil, err
	}
	merged := make([]*Result, cells)
	for c, nS := 0, len(seeds); c < cells; c++ {
		merged[c] = mergeSeedResults(seeds, flat[c*nS:(c+1)*nS])
	}
	return merged, nil
}

// RunSeeds runs the experiment across several seeds — in parallel when the
// Runner has more than one worker — and merges the per-initiation samples,
// shrinking confidence intervals the way the paper's "large number of
// samples" does. Results are identical to the sequential path.
func (r *Runner) RunSeeds(cfg Config, seeds []uint64) (*Result, error) {
	merged, err := r.runGrid(1, seeds, func(int) Config { return cfg }, func(int) string { return "harness" })
	if err != nil {
		return nil, err
	}
	return merged[0], nil
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
		errs := res.verdictErrs()
		for _, e := range errs {
			if *e != nil {
				*e = fmt.Errorf("seed %d: %w", seed, *e)
			}
		}
		for j, e := range res.ClusterErrors {
			res.ClusterErrors[j] = fmt.Errorf("seed %d: %w", seed, e)
		}
		if merged == nil {
			merged = res
			continue
		}
		for j, e := range merged.verdictErrs() {
			if *e == nil {
				*e = *errs[j]
			}
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
		merged.Committed += res.Committed
		merged.Aborted += res.Aborted
		merged.LinesChecked += res.LinesChecked
		merged.NewCommits += res.NewCommits
		merged.TimeoutAborts += res.TimeoutAborts
		mr, rr := &merged.Rel, &res.Rel
		mr.DataFrames += rr.DataFrames
		mr.Retransmissions += rr.Retransmissions
		mr.AcksSent += rr.AcksSent
		mr.DupsSuppressed += rr.DupsSuppressed
		mr.Buffered += rr.Buffered
		mr.GaveUp += rr.GaveUp
		mr.Reopened += rr.Reopened
		mr.StaleFrames += rr.StaleFrames
		mr.ChannelResets += rr.ChannelResets
		merged.Dropped += res.Dropped
		merged.Duplicated += res.Duplicated
		merged.Jittered += res.Jittered
		merged.PartitionDropped += res.PartitionDropped
		merged.CrashDropped += res.CrashDropped
		merged.RevivedDeliveries += res.RevivedDeliveries
		merged.Reports = append(merged.Reports, res.Reports...)
		merged.Crashes += res.Crashes
		merged.Restarts += res.Restarts
		merged.RecoveryTime += res.RecoveryTime
		merged.PeerRollbacks += res.PeerRollbacks
		merged.Replayed += res.Replayed
		merged.Deduped += res.Deduped
		merged.LoggedMsgs += res.LoggedMsgs
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
		ps.SelfDedupChunks += rs.SelfDedupChunks
		ps.CrossDedupChunks += rs.CrossDedupChunks
		merged.ClusterErrors = append(merged.ClusterErrors, res.ClusterErrors...)
	}
	merged.ConsistencyOK = merged.ConsistencyErr == nil
	merged.PostRecoveryOK = merged.PostRecoveryErr == nil
	merged.DiskLineOK = merged.DiskLineErr == nil
	merged.PayloadVerifyOK = merged.PayloadVerifyErr == nil
	if merged.Tentative.Mean() > 0 {
		merged.RedundantRatio = merged.Redundant.Mean() / merged.Tentative.Mean()
	}
	if merged.PayloadLogicalBytes > 0 {
		merged.PayloadRatio = float64(merged.PayloadNewBytes) / float64(merged.PayloadLogicalBytes)
	}
	return merged
}

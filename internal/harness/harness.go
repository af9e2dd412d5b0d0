// Package harness runs the paper's experiments: it builds simulated
// clusters, drives the §5.1 workloads, collects per-initiation samples
// with 95% confidence intervals, and regenerates every figure and table of
// the evaluation section (see DESIGN.md §3 for the experiment index).
package harness

import (
	"fmt"
	"path/filepath"
	"time"

	"mutablecp/internal/algorithms"
	"mutablecp/internal/checkpoint"
	"mutablecp/internal/chunkstore"
	"mutablecp/internal/consistency"
	"mutablecp/internal/protocol"
	"mutablecp/internal/simrt"
	"mutablecp/internal/stable"
	"mutablecp/internal/stats"
	"mutablecp/internal/trace"
	"mutablecp/internal/workload"
)

// Algorithm names accepted by Config.Algorithm: the internal/algorithms
// registry under the names experiment configs use. The end-of-run line
// check is skipped for AlgoLogBased, whose checkpoints are uncoordinated.
const (
	AlgoMutable         = algorithms.Mutable
	AlgoMutableTargeted = algorithms.MutableTargeted
	AlgoKooToueg        = algorithms.KooToueg
	AlgoElnozahy        = algorithms.Elnozahy
	AlgoChandyLamport   = algorithms.ChandyLamport
	AlgoNaiveSimple     = algorithms.NaiveSimple
	AlgoNaiveRevised    = algorithms.NaiveRevised
	AlgoNaiveNoCSN      = algorithms.NaiveNoCSN
	AlgoLogBased        = algorithms.LogBased
)

// WorkloadKind selects the communication environment of §5.1.
type WorkloadKind int

// Workload kinds.
const (
	WorkloadP2P WorkloadKind = iota + 1
	WorkloadGroup
	// WorkloadClientServer is the asymmetric mobile traffic shape: a few
	// server processes (the lowest pids) answer requests from every
	// client, concentrating dependencies on the servers.
	WorkloadClientServer
)

// Config describes one experiment run.
type Config struct {
	Algorithm string
	N         int
	Seed      uint64

	Workload WorkloadKind
	// Rate is the per-process message sending rate (msgs/s); for group
	// workloads it is the intra-group rate.
	Rate float64
	// GroupRatio is the intra/inter rate ratio (group workloads only).
	GroupRatio float64
	// Groups is the number of groups (default 4).
	Groups int
	// Servers is the number of server processes (client-server workloads
	// only; default max(2, N/8)).
	Servers int

	// Horizon is the simulated time to run. Zero means enough for
	// MinInitiations completed instances (default 40 intervals).
	Horizon time.Duration
	// Interval overrides the per-process checkpoint interval (default the
	// paper's 900 s).
	Interval time.Duration
	// WarmupInitiations skips the first k completed instances (cold-start
	// csn state inflates the very first request tree).
	WarmupInitiations int

	// SkipConsistency disables the end-of-run recovery-line check (used
	// for the deliberately broken naive-nocsn ablation).
	SkipConsistency bool

	// DozeCount puts the last DozeCount processes into doze mode for the
	// whole run (they generate no traffic; arriving messages wake them at
	// an energy cost). Point-to-point workloads only.
	DozeCount int

	// Active, when positive, restricts the workload and the checkpoint
	// timers to the first Active processes; the other N-Active processes
	// exist (dependency vectors, recovery line) but stay idle. This is
	// the scale ladder's regime: the paper's min-process premise is that
	// instances touch a small participant set regardless of system size.
	// Point-to-point workloads only; mutually exclusive with DozeCount.
	Active int

	// StoreDir, when non-empty, backs every process's stable store with
	// the durable internal/stable log under this directory (one
	// subdirectory per process) instead of the in-memory store. After the
	// run every store is additionally reopened from disk and compared with
	// what it held; the verdict lands in Result.DiskLineOK. Each seed writes
	// under its own seed-<n> subdirectory, so one StoreDir serves a whole
	// RunSeeds sweep without collisions. The directory must be private to
	// this experiment.
	StoreDir string

	// PayloadBytes, when positive, attaches the checkpoint payload plane:
	// each process carries a synthetic image of this size, stepped by
	// PayloadProfile at every checkpoint and stored into a
	// content-addressed chunk store whose save/commit/drop lifecycle
	// shadows the control plane. The stable transfer is then charged the
	// deduplicated incremental bytes instead of the fixed 512 KB.
	PayloadBytes int
	// PayloadChunkBytes is the chunking granularity (default 4 KiB); it
	// doubles as the image source's page size so dedup accounting is
	// exact.
	PayloadChunkBytes int
	// PayloadProfile selects how images mutate between checkpoints
	// (uniform, skewed-dirty-page, or append-only).
	PayloadProfile workload.ImageProfile
	// PayloadMode selects full, incremental, or delta payload storage.
	PayloadMode chunkstore.Mode
	// PayloadDir, when non-empty, puts the chunk segments on the real
	// filesystem under per-seed subdirectories; empty keeps them on an
	// in-memory errfs.
	PayloadDir string
}

func (c Config) defaults() Config {
	if c.Algorithm == "" {
		c.Algorithm = AlgoMutable
	}
	if c.N == 0 {
		c.N = 16
	}
	if c.Workload == 0 {
		c.Workload = WorkloadP2P
	}
	if c.GroupRatio == 0 {
		c.GroupRatio = 1000
	}
	if c.Groups == 0 {
		c.Groups = 4
	}
	if c.Servers == 0 {
		c.Servers = c.N / 8
		if c.Servers < 2 {
			c.Servers = 2
		}
	}
	if c.Interval == 0 {
		c.Interval = 900 * time.Second
	}
	if c.Horizon == 0 {
		c.Horizon = 40 * c.Interval
	}
	if c.WarmupInitiations == 0 {
		c.WarmupInitiations = 1
	}
	if c.PayloadBytes > 0 && c.PayloadChunkBytes == 0 {
		c.PayloadChunkBytes = 4 << 10
	}
	return c
}

// Result aggregates one experiment run. Every Sample is per completed
// initiation.
type Result struct {
	Config      Config
	Initiations int

	Tentative       stats.Sample // stable checkpoints per initiation
	Mutable         stats.Sample // mutable checkpoints taken per initiation
	Redundant       stats.Sample // redundant (discarded) mutable checkpoints
	SysMsgs         stats.Sample // system messages per initiation
	DurationSec     stats.Sample // checkpointing time T_ch (seconds)
	BlockedSec      stats.Sample // total computation blocking (seconds)
	RedundantRatio  float64      // mean redundant / mean tentative
	ConsistencyOK   bool
	ConsistencyErr  error
	ClusterErrors   []error
	CompMsgs        uint64
	TotalSysMsgs    uint64
	SimulatedEvents uint64

	// Global checkpoint totals over the whole run (robust even when an
	// instance never terminates, as the naive avalanche schemes can).
	TotalStable    uint64
	TotalMutableCk uint64
	Intervals      float64 // run length in checkpoint intervals

	// DozeWakeups counts messages that awakened dozing hosts (energy
	// cost; only meaningful with Config.DozeCount > 0).
	DozeWakeups uint64

	// DiskLineOK reports whether every store reopened from disk after the
	// run holds what it held before (simrt.Cluster.VerifyStoreRestart):
	// the retained permanents, which include the recovery line the
	// consistency check passed, and the pending tentatives. Always true for
	// in-memory runs (no disk to disagree with).
	DiskLineOK  bool
	DiskLineErr error

	// Payload-plane results (Config.PayloadBytes > 0 only).
	// PayloadRatio = new/logical bytes: what fraction of the naive full
	// transfer the content-addressed store actually moved.
	PayloadSaves        uint64
	PayloadLogicalBytes uint64
	PayloadNewBytes     uint64
	PayloadRatio        float64
	// PayloadVerifyOK is the end-of-run payload audit: every retained
	// manifest resolves to intact chunks and the newest permanent image
	// of every process materializes. True (vacuously) without a payload
	// plane.
	PayloadVerifyOK  bool
	PayloadVerifyErr error
	PayloadStats     chunkstore.Stats
}

// newGenerator builds the workload generator for one experiment config.
func newGenerator(cfg Config) (simrt.Generator, error) {
	switch cfg.Workload {
	case WorkloadP2P:
		active := 0
		if cfg.DozeCount > 0 {
			if cfg.DozeCount >= cfg.N-1 {
				return nil, fmt.Errorf("harness: DozeCount %d leaves no active pair", cfg.DozeCount)
			}
			active = cfg.N - cfg.DozeCount
		}
		if cfg.Active > 0 {
			if cfg.DozeCount > 0 {
				return nil, fmt.Errorf("harness: Active and DozeCount are mutually exclusive")
			}
			if cfg.Active < 2 || cfg.Active > cfg.N {
				return nil, fmt.Errorf("harness: Active %d out of range for N=%d", cfg.Active, cfg.N)
			}
			active = cfg.Active
		}
		return &simrt.PointToPoint{Rate: cfg.Rate, Active: active}, nil
	case WorkloadGroup:
		return &simrt.Group{Groups: cfg.Groups, IntraRate: cfg.Rate, InterRatio: cfg.GroupRatio}, nil
	case WorkloadClientServer:
		return &simrt.ClientServer{Servers: cfg.Servers, Rate: cfg.Rate}, nil
	default:
		return nil, fmt.Errorf("harness: unknown workload kind %d", cfg.Workload)
	}
}

// runCluster builds one simulated cluster for cfg (optionally with a
// structured trace attached), drives the workload over the horizon, and
// drains it. Callers read metrics, state, or the trace off the returned
// cluster.
func runCluster(cfg Config, tl *trace.Log) (*simrt.Cluster, *payloadRun, error) {
	factory, err := algorithms.New(cfg.Algorithm)
	if err != nil {
		return nil, nil, err
	}
	simCfg := simrt.Config{
		N:                   cfg.N,
		Seed:                cfg.Seed,
		NewEngine:           factory,
		CheckpointInterval:  cfg.Interval,
		ScheduleCheckpoints: true,
		SingleInitiation:    true,
		ScheduledProcs:      cfg.Active,
		Trace:               tl,
	}
	storeOpts := stable.Options{Keep: 1}
	if cfg.StoreDir != "" {
		dir := storeSeedDir(cfg.StoreDir, cfg.Seed)
		simCfg.NewStore = func(pid protocol.ProcessID, n int) (checkpoint.Store, error) {
			return stable.Open(stable.ProcDir(dir, pid), pid, n, storeOpts)
		}
	}
	pr, err := newPayloadRun(cfg)
	if err != nil {
		return nil, nil, err
	}
	pr.wire(&simCfg, cfg)
	cluster, err := simrt.New(simCfg)
	if err != nil {
		pr.close()
		return nil, nil, err
	}

	gen, err := newGenerator(cfg)
	if err != nil {
		pr.close()
		return nil, nil, err
	}
	gen.Install(cluster)
	for i := cfg.N - cfg.DozeCount; cfg.DozeCount > 0 && i < cfg.N; i++ {
		cluster.Proc(i).Doze()
	}
	cluster.Start()

	if err := cluster.Run(cfg.Horizon); err != nil {
		pr.close()
		return nil, nil, fmt.Errorf("harness: run: %w", err)
	}
	gen.Stop()
	cluster.StopTimers()
	if err := cluster.Drain(); err != nil {
		pr.close()
		return nil, nil, fmt.Errorf("harness: drain: %w", err)
	}
	return cluster, pr, nil
}

// Run executes one experiment.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.defaults()
	cluster, pr, err := runCluster(cfg, nil)
	if err != nil {
		return nil, err
	}

	met := cluster.Metrics()
	res := &Result{
		Config:          cfg,
		ConsistencyOK:   true,
		PayloadVerifyOK: true,
		ClusterErrors:   cluster.Errors(),
		CompMsgs:        met.CompMsgs,
		TotalSysMsgs:    met.SysMsgs,
		SimulatedEvents: cluster.Executed(),
		TotalStable:     met.TotalTentative,
		TotalMutableCk:  met.TotalMutable,
		Intervals:       float64(cfg.Horizon) / float64(cfg.Interval),
	}
	for i := cfg.N - cfg.DozeCount; cfg.DozeCount > 0 && i < cfg.N; i++ {
		res.DozeWakeups += cluster.Proc(i).Wakeups()
	}
	completed := met.Completed()
	for i, rec := range completed {
		if i < cfg.WarmupInitiations {
			continue
		}
		res.Initiations++
		res.Tentative.Add(float64(rec.Tentative))
		res.Mutable.Add(float64(rec.Mutable))
		res.Redundant.Add(float64(rec.Discarded))
		res.SysMsgs.Add(float64(rec.SysMsgs))
		res.DurationSec.Add(rec.Duration().Seconds())
		res.BlockedSec.Add(rec.BlockedTime.Seconds())
	}
	if res.Tentative.Mean() > 0 {
		res.RedundantRatio = res.Redundant.Mean() / res.Tentative.Mean()
	}
	if !cfg.SkipConsistency && cfg.Algorithm != AlgoLogBased {
		// Log-based checkpoints are independent: the newest-permanent cut
		// is not a consistent line by design (recovery replays the logs
		// instead), so the line check does not apply.
		if err := consistency.Check(cluster.PermanentLine()); err != nil {
			res.ConsistencyOK = false
			res.ConsistencyErr = err
		}
	}
	res.DiskLineOK = true
	if cfg.StoreDir != "" {
		res.DiskLineErr = cluster.VerifyStoreRestart()
		res.DiskLineOK = res.DiskLineErr == nil
	}
	res.PayloadSaves = met.PayloadSaves
	res.PayloadLogicalBytes = met.PayloadLogicalBytes
	res.PayloadNewBytes = met.PayloadNewBytes
	if res.PayloadLogicalBytes > 0 {
		res.PayloadRatio = float64(res.PayloadNewBytes) / float64(res.PayloadLogicalBytes)
	}
	pr.finish(res, cfg.N)
	return res, nil
}

// storeSeedDir is the per-seed subdirectory of a durable store root: seeds
// of one sweep run concurrently and must never share a segment log.
func storeSeedDir(root string, seed uint64) string {
	return filepath.Join(root, fmt.Sprintf("seed-%d", seed))
}

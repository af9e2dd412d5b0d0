// Package harness runs the paper's experiments: it builds simulated
// clusters, drives the §5.1 workloads, collects per-initiation samples
// with 95% confidence intervals, and regenerates every figure and table of
// the evaluation section (see DESIGN.md §3 for the experiment index).
package harness

import (
	"cmp"
	"fmt"
	"path/filepath"
	"slices"
	"time"

	"mutablecp/internal/algorithms"
	"mutablecp/internal/checkpoint"
	"mutablecp/internal/chunkstore"
	"mutablecp/internal/consistency"
	"mutablecp/internal/des"
	"mutablecp/internal/netsim"
	"mutablecp/internal/protocol"
	"mutablecp/internal/recovery"
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

const (
	// groups is the number of groups in a group workload. Paper: 4.
	groups = 4
	// warmupInitiations is how many of the first completed instances the
	// statistics skip (cold-start csn state inflates the very first
	// request tree).
	warmupInitiations = 1
)

// Config describes one simulated run: the §5.1 experiment (N hosts on the
// shared wireless LAN, a traffic mix, a checkpoint interval) plus two
// optional sections, a fault mix on the network and a crash plan.
type Config struct {
	Algorithm string
	N         int
	Seed      uint64

	Workload WorkloadKind
	// Rate is the per-process message sending rate (msgs/s); for group
	// workloads it is the intra-group rate.
	Rate float64
	// GroupRatio is the intra/inter rate ratio (group workloads only;
	// the processes form the paper's 4 groups).
	GroupRatio float64
	// Servers is the number of server processes (client-server workloads
	// only; default max(2, N/8)).
	Servers int

	// Horizon is the simulated time to run. Zero means enough for
	// MinInitiations completed instances (default 40 intervals).
	Horizon time.Duration
	// Interval overrides the per-process checkpoint interval (default the
	// paper's 900 s).
	Interval time.Duration

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
	// PayloadDir, when non-empty, puts the chunk segments on the real
	// filesystem under per-seed subdirectories; empty keeps them on an
	// in-memory errfs.
	PayloadDir string

	// Faults, when non-nil, runs the network as netsim.Reliable's ARQ on
	// top of netsim.Faulty on top of the shared LAN, and holds the run to
	// simrt's audit: every committed line orphan-free and no checkpoint
	// leaked. Nil is the plain LAN. The audit assumes coordinated lines, so
	// a Faults section requires AlgoMutable.
	Faults *Faults

	// Crashes fail-stops processes mid-run. A plan with RestartAfter > 0
	// is recovered live by internal/recovery's executor, in the mode
	// RecoveryModeFor(Algorithm), and must leave the resumed run at least
	// one checkpoint interval before the horizon. A plan without a restart
	// stays down and needs Faults, whose §3.6 timeout resolves the
	// instances waiting on it. Restarting plans may not overlap and may
	// not share a run with a fail-stop one: recovery touches every
	// process, so no other victim may be down at the time.
	Crashes []simrt.CrashPlan
}

// Faults is a run's fault mix. Zero fields inject nothing of that kind; an
// all-zero section still runs the ARQ and the §3.6 request timeout.
type Faults struct {
	// Drop and Dup are per-message probabilities in [0, 1).
	Drop, Dup float64
	// JitterMax is the maximum extra per-copy delivery delay.
	JitterMax time.Duration
	// PartitionWindow, when positive, cuts the cluster in half (low pids
	// vs high pids) for that long, starting at Horizon/3.
	PartitionWindow time.Duration
	// PartialCommit selects the Kim–Park resolution on timeout with a
	// known crashed process: the uncontaminated subtree still commits.
	PartialCommit bool
	// RequestTimeout is the §3.6 initiator give-up timer (default 120 s).
	// It must exceed the partition window plus the ARQ recovery time, or
	// healthy instances abort spuriously.
	RequestTimeout time.Duration
	// MSSRestart crashes and restarts every support station's storage at
	// Horizon/2, mid-protocol: stores close and recover from disk while
	// instances are in flight. Requires StoreDir: with the in-memory
	// backend the restart would (correctly, and fatally for the run) lose
	// every checkpoint.
	MSSRestart bool
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
	if c.PayloadBytes > 0 && c.PayloadChunkBytes == 0 {
		c.PayloadChunkBytes = 4 << 10
	}
	if c.Faults != nil {
		f := *c.Faults // a copy: sweep cells share the caller's section
		if f.RequestTimeout == 0 {
			f.RequestTimeout = 120 * time.Second
		}
		c.Faults = &f
	}
	return c
}

// validate rejects a defaulted config before anything is built.
func (c Config) validate() error {
	if c.Workload != WorkloadP2P && (c.Active > 0 || c.DozeCount > 0) {
		return fmt.Errorf("harness: Active and DozeCount apply to point-to-point workloads only")
	}
	if c.Active > 0 && c.DozeCount > 0 {
		return fmt.Errorf("harness: Active and DozeCount are mutually exclusive")
	}
	if c.DozeCount > 0 && c.DozeCount >= c.N-1 {
		return fmt.Errorf("harness: DozeCount %d leaves no active pair", c.DozeCount)
	}
	if c.Active < 0 || c.Active == 1 || c.Active > c.N {
		return fmt.Errorf("harness: Active %d out of range for N=%d (0 = all, else 2..N)", c.Active, c.N)
	}
	if c.Faults != nil && c.Algorithm != AlgoMutable {
		return fmt.Errorf("harness: Faults runs the mutable engine only (its audit assumes coordinated lines), not %q", c.Algorithm)
	}
	if c.Faults != nil && c.Faults.MSSRestart && c.StoreDir == "" {
		return fmt.Errorf("harness: MSSRestart requires StoreDir (an in-memory store cannot survive a storage restart)")
	}
	plans := slices.Clone(c.Crashes)
	slices.SortFunc(plans, func(a, b simrt.CrashPlan) int { return cmp.Compare(a.At, b.At) })
	for i, p := range plans {
		if p.RestartAfter == 0 {
			if c.Faults == nil {
				return fmt.Errorf("harness: P%d fail-stops without Faults (nothing would resolve the instances waiting on it)", p.Proc)
			}
			if restarts(plans) {
				return fmt.Errorf("harness: P%d fail-stops in a run that recovers crashes (recovery touches every process)", p.Proc)
			}
			continue
		}
		if end := p.At + p.RestartAfter; end+c.Interval > c.Horizon {
			return fmt.Errorf("harness: P%d restarts at %v, leaving the resumed run less than one %v checkpoint interval before the horizon (%v)",
				p.Proc, end, c.Interval, c.Horizon)
		}
		if i > 0 && p.At <= plans[i-1].At+plans[i-1].RestartAfter {
			return fmt.Errorf("harness: P%d crashes at %v while P%d is still down (outages must not overlap)",
				p.Proc, p.At, plans[i-1].Proc)
		}
	}
	return nil
}

// restarts reports whether any plan is recovered.
func restarts(plans []simrt.CrashPlan) bool {
	return slices.ContainsFunc(plans, func(p simrt.CrashPlan) bool { return p.RestartAfter > 0 })
}

// faultConfig assembles the netsim.FaultConfig for a run with Faults: the
// transport cuts each victim's radio over the window its host is down.
func (c Config) faultConfig() netsim.FaultConfig {
	f := c.Faults
	fc := netsim.FaultConfig{Seed: c.Seed, Drop: f.Drop, Dup: f.Dup, JitterMax: f.JitterMax}
	if f.PartitionWindow > 0 {
		groupA := make([]protocol.ProcessID, c.N/2)
		for p := range groupA {
			groupA[p] = p
		}
		start := c.Horizon / 3
		fc.Partitions = []netsim.Partition{{From: start, Until: start + f.PartitionWindow, GroupA: groupA}}
	}
	fc.CrashAt = make(map[protocol.ProcessID]time.Duration, len(c.Crashes))
	fc.RestartAt = make(map[protocol.ProcessID]time.Duration, len(c.Crashes))
	for _, p := range c.Crashes {
		fc.CrashAt[p.Proc] = p.At
		if p.RestartAfter > 0 {
			fc.RestartAt[p.Proc] = p.At + p.RestartAfter
		}
	}
	return fc
}

// Result aggregates one run. Every Sample is per completed initiation.
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
	ClusterErrors   []error
	CompMsgs        uint64
	TotalSysMsgs    uint64
	SimulatedEvents uint64

	// ConsistencyOK is the line verdict. With Faults it is simrt's run
	// audit: every committed line replayed and orphan-checked, and no
	// leaked checkpoint. Without Faults or a recovered crash it is the
	// end-of-run check of the newest permanent line. True when neither
	// applies.
	ConsistencyOK  bool
	ConsistencyErr error

	// Global checkpoint totals over the whole run (robust even when an
	// instance never terminates, as the naive avalanche schemes can).
	TotalStable    uint64
	TotalMutableCk uint64
	Intervals      float64 // run length in checkpoint intervals

	// Committed counts committed instances: with Faults, the audit's count
	// of instances that produced at least one permanent checkpoint (with
	// Aborted those that produced none, and LinesChecked the lines that
	// passed the orphan check); otherwise the instances the metrics record
	// as committed. NewCommits counts the committed instances that started
	// after the last plan of Config.Crashes ended: after its restart, or
	// its crash for a fail-stop plan.
	Committed, Aborted, LinesChecked, NewCommits int
	TimeoutAborts                                uint64

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

	// Fault counters (Config.Faults set only).
	Rel                                               netsim.ReliableMetrics
	Dropped, Duplicated, Jittered                     uint64
	PartitionDropped, CrashDropped, RevivedDeliveries uint64

	// Crash-and-recover results. Mode is the algorithm's recovery
	// strategy; Reports holds one executor report per recovered crash;
	// LoggedMsgs is the sender-log growth of the log-based family.
	Mode                                         recovery.Mode
	Reports                                      []*recovery.Report
	Crashes, Restarts                            uint64
	RecoveryTime                                 time.Duration // summed victim down-to-live time
	PeerRollbacks, Replayed, Deduped, LoggedMsgs uint64
	// PostRecoveryOK is the recovery verdict (a restarting crash plan
	// only): every recovery left the live states consistent, checked
	// inside its own event before new traffic could mask a violation;
	// every plan restarted exactly once; and the resumed run committed a
	// new line. True when no plan restarts.
	PostRecoveryOK  bool
	PostRecoveryErr error
}

// Err returns the first failed verdict of the run, or nil.
func (r *Result) Err() error {
	if len(r.ClusterErrors) > 0 {
		return fmt.Errorf("cluster invariant: %w", r.ClusterErrors[0])
	}
	for i, e := range r.verdictErrs() {
		if *e != nil {
			return fmt.Errorf("%s: %w", verdictNames[i], *e)
		}
	}
	return nil
}

// verdictErrs points at the run's verdict errors, in Err's order; each
// verdict's OK flag is its error being nil.
func (r *Result) verdictErrs() []*error {
	return []*error{&r.ConsistencyErr, &r.PostRecoveryErr, &r.DiskLineErr, &r.PayloadVerifyErr}
}

var verdictNames = []string{"consistency", "post-recovery", "durable store", "payload audit"}

// newGenerator builds the workload generator for one validated config.
func newGenerator(cfg Config) (simrt.Generator, error) {
	switch cfg.Workload {
	case WorkloadP2P:
		active := cfg.Active
		if cfg.DozeCount > 0 {
			active = cfg.N - cfg.DozeCount
		}
		return &simrt.PointToPoint{Rate: cfg.Rate, Active: active}, nil
	case WorkloadGroup:
		return &simrt.Group{Groups: groups, IntraRate: cfg.Rate, InterRatio: cfg.GroupRatio}, nil
	case WorkloadClientServer:
		return &simrt.ClientServer{Servers: cfg.Servers, Rate: cfg.Rate}, nil
	default:
		return nil, fmt.Errorf("harness: unknown workload kind %d", cfg.Workload)
	}
}

// simRun is one built and driven cluster with the parts its verdicts read.
type simRun struct {
	cluster *simrt.Cluster
	payload *chunkstore.Store  // nil without a payload plane
	exec    *recovery.Executor // nil unless a crash plan restarts
	faulty  *netsim.Faulty     // nil without Faults
	rel     *netsim.Reliable
}

// drive validates a defaulted config, builds its simulated cluster
// (optionally with a structured trace attached), installs the workload,
// the crash plans and the storage restart, runs to the horizon, and
// drains. It is the one place a simulated run is built.
func drive(cfg Config, tl *trace.Log) (r *simRun, err error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	factory, err := algorithms.New(cfg.Algorithm)
	if err != nil {
		return nil, err
	}
	gen, err := newGenerator(cfg)
	if err != nil {
		return nil, err
	}
	mode := RecoveryModeFor(cfg.Algorithm)
	r = &simRun{}
	simCfg := simrt.Config{
		N:                   cfg.N,
		Seed:                cfg.Seed,
		NewEngine:           factory,
		CheckpointInterval:  cfg.Interval,
		ScheduleCheckpoints: true,
		SingleInitiation:    true,
		ScheduledProcs:      cfg.Active,
		Trace:               tl,
		MessageLogging:      mode == recovery.ModeLog,
	}
	storeOpts := stable.Options{Keep: 1}
	if f := cfg.Faults; f != nil {
		// The line audit replays the full permanent history, so the
		// durable stores run in audit mode (Keep=0: no compaction).
		storeOpts.Keep = 0
		simCfg.RequestTimeout = f.RequestTimeout
		simCfg.PartialAbortOnFailure = f.PartialCommit
		fc := cfg.faultConfig()
		simCfg.NewTransport = func(sim *des.Simulator, n int) netsim.Transport {
			lan := netsim.NewLAN(sim, n, netsim.WirelessLAN2Mbps)
			r.faulty = netsim.NewFaulty(sim, lan, n, fc)
			r.rel = netsim.NewReliable(sim, r.faulty, n)
			return r.rel
		}
	}
	if cfg.StoreDir != "" {
		dir := storeSeedDir(cfg.StoreDir, cfg.Seed)
		simCfg.NewStore = func(pid protocol.ProcessID, n int) (checkpoint.Store, error) {
			return stable.Open(stable.ProcDir(dir, pid), pid, n, storeOpts)
		}
	}
	payload, err := openPayload(cfg, &simCfg)
	if err != nil {
		return nil, err
	}
	r.payload = payload
	// Close the local: a failing return has already set the named r to nil.
	defer func() {
		if err != nil && payload != nil {
			payload.Close() //nolint:errcheck
		}
	}()
	cluster, err := simrt.New(simCfg)
	if err != nil {
		return nil, err
	}
	r.cluster = cluster

	gen.Install(cluster)
	for i := cfg.N - cfg.DozeCount; cfg.DozeCount > 0 && i < cfg.N; i++ {
		cluster.Proc(i).Doze()
	}
	// Same-instant events run in schedule order: fail the victims in
	// ascending pid order, whatever order the plans were listed in.
	plans := slices.Clone(cfg.Crashes)
	slices.SortStableFunc(plans, func(a, b simrt.CrashPlan) int { return cmp.Compare(a.Proc, b.Proc) })
	if restarts(plans) {
		r.exec, err = recovery.NewExecutor(cluster, mode)
		if err == nil {
			err = r.exec.Install(plans)
		}
	} else {
		err = cluster.InstallCrashes(plans, nil)
	}
	if err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	// The storage restart lands at the same midpoint as the gauntlet's
	// host crashes: stores recover from disk mid-protocol, with instances
	// in flight, and the run must not notice.
	var restartErr error
	if cfg.Faults != nil && cfg.Faults.MSSRestart {
		cluster.Sim().Schedule(cfg.Horizon/2, func() {
			if err := cluster.RestartStores(); err != nil && restartErr == nil {
				restartErr = err
			}
		})
	}
	cluster.Start()

	if err := cluster.Run(cfg.Horizon); err != nil {
		return nil, fmt.Errorf("harness: run: %w", err)
	}
	if restartErr != nil {
		return nil, fmt.Errorf("harness: MSS restart: %w", restartErr)
	}
	gen.Stop()
	cluster.StopTimers()
	if err := cluster.Drain(); err != nil {
		return nil, fmt.Errorf("harness: drain: %w", err)
	}
	return r, nil
}

// Run executes one simulated run and applies its verdicts: the run audit
// with Faults, the recovery verdict with a restarting crash plan, the
// end-of-run line check otherwise, and the disk and payload audits when
// those planes are on. A non-nil error is an invalid config or an
// infrastructure failure; a failed verdict is Result.Err.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.defaults()
	r, err := drive(cfg, nil)
	if err != nil {
		return nil, err
	}
	cluster, met := r.cluster, r.cluster.Metrics()
	res := &Result{
		Config:          cfg,
		PostRecoveryOK:  true,
		PayloadVerifyOK: true,
		ClusterErrors:   cluster.Errors(),
		CompMsgs:        met.CompMsgs,
		TotalSysMsgs:    met.SysMsgs,
		SimulatedEvents: cluster.Executed(),
		TotalStable:     met.TotalTentative,
		TotalMutableCk:  met.TotalMutable,
		Intervals:       float64(cfg.Horizon) / float64(cfg.Interval),
		TimeoutAborts:   met.TimeoutAborts,
		Mode:            RecoveryModeFor(cfg.Algorithm),
		Crashes:         met.Crashes,
		Restarts:        met.Restarts,
		RecoveryTime:    met.RecoveryTime,
		PeerRollbacks:   met.PeerRollbacks,
		Replayed:        met.ReplayedMessages,
		Deduped:         met.DedupedReplays,
	}
	for i := cfg.N - cfg.DozeCount; cfg.DozeCount > 0 && i < cfg.N; i++ {
		res.DozeWakeups += cluster.Proc(i).Wakeups()
	}
	// Commits after the last victim is back prove the resumed run makes
	// progress (every committed instance counts without a crash plan).
	var lastRestart time.Duration
	for _, p := range cfg.Crashes {
		lastRestart = max(lastRestart, p.At+p.RestartAfter)
	}
	for i, rec := range met.Completed() {
		if rec.Committed {
			res.Committed++
			if rec.Start > lastRestart {
				res.NewCommits++
			}
		}
		if i < warmupInitiations {
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
	if f := r.faulty; f != nil {
		res.Rel = r.rel.Metrics
		res.Dropped, res.Duplicated, res.Jittered = f.Dropped, f.Duplicated, f.Jittered
		res.PartitionDropped, res.CrashDropped, res.RevivedDeliveries = f.PartitionDropped, f.CrashDropped, f.RevivedDeliveries
	}
	if res.Mode == recovery.ModeLog {
		for p := 0; p < cfg.N; p++ {
			for q := 0; q < cfg.N; q++ {
				res.LoggedMsgs += cluster.Proc(p).LoggedSends(q) // nothing is sent to self
			}
		}
	}

	switch {
	case cfg.Faults != nil:
		// A crash that was never recovered leaves its victim down, which
		// is how the audit knows to exempt it.
		res.Committed, res.Aborted, err = cluster.AuditLines()
		if err == nil {
			res.LinesChecked = res.Committed
			err = cluster.AuditLeaks()
		}
		res.ConsistencyErr = err
	case r.exec != nil:
		// The executor checked the live states inside each recovery.
	case !cfg.SkipConsistency && cfg.Algorithm != AlgoLogBased:
		// Log-based checkpoints are independent: the newest-permanent cut
		// is not a consistent line by design (recovery replays the logs
		// instead), so the line check does not apply.
		res.ConsistencyErr = consistency.Check(cluster.PermanentLine())
	}
	res.ConsistencyOK = res.ConsistencyErr == nil
	if r.exec != nil {
		res.Reports = r.exec.Reports()
		want := len(cfg.Crashes)
		switch {
		case r.exec.Inconsistent() != nil:
			res.PostRecoveryErr = r.exec.Inconsistent()
		case len(res.Reports) != want || res.Restarts != uint64(want):
			res.PostRecoveryErr = fmt.Errorf("%d recoveries, %d restarts, want %d", len(res.Reports), res.Restarts, want)
		case res.NewCommits == 0:
			res.PostRecoveryErr = fmt.Errorf("no line committed after the recovery at %v", lastRestart)
		}
		res.PostRecoveryOK = res.PostRecoveryErr == nil
	}
	res.DiskLineOK = true
	if cfg.StoreDir != "" {
		// Everything the verdicts just accepted must survive a final
		// storage restart: reopen every store from disk and compare.
		res.DiskLineErr = cluster.VerifyStoreRestart()
		res.DiskLineOK = res.DiskLineErr == nil
	}
	res.PayloadSaves = met.PayloadSaves
	res.PayloadLogicalBytes = met.PayloadLogicalBytes
	res.PayloadNewBytes = met.PayloadNewBytes
	if res.PayloadLogicalBytes > 0 {
		res.PayloadRatio = float64(res.PayloadNewBytes) / float64(res.PayloadLogicalBytes)
	}
	finishPayload(r.payload, res)
	return res, nil
}

// storeSeedDir is the per-seed subdirectory of a durable store root: seeds
// of one sweep run concurrently and must never share a segment log.
func storeSeedDir(root string, seed uint64) string {
	return filepath.Join(root, fmt.Sprintf("seed-%d", seed))
}

package harness

// Executed-recovery experiments (E21): seed crashes into a live run,
// recover through internal/recovery's executor, and compare the four
// recovery families of the evaluation — blocking coordinated (koo-toueg),
// all-process coordinated (elnozahy), mutable (the paper's algorithm), and
// log-based (independent checkpoints + sender-based message logging).
// The axes are the classic trade-off: coordinated schemes pay system
// messages on every checkpoint but recover by pure rollback; the
// log-based scheme checkpoints for free but pays log growth and replay,
// and rolls back nobody but the victim.

import (
	"fmt"
	"strings"
	"time"

	"mutablecp/internal/algorithms"
	"mutablecp/internal/protocol"
	"mutablecp/internal/recovery"
	"mutablecp/internal/simrt"
)

// RecoveryModeFor maps an algorithm family to its recovery strategy:
// log-based replays from the logs, everything else rolls back to the
// newest committed line.
func RecoveryModeFor(algorithm string) recovery.Mode {
	if algorithm == AlgoLogBased {
		return recovery.ModeLog
	}
	return recovery.ModeRollback
}

// RecoveryConfig describes one crash-and-recover experiment run.
type RecoveryConfig struct {
	Algorithm string
	N         int
	Seed      uint64
	// Rate is the per-process message rate (msgs/s), point-to-point.
	Rate float64
	// Interval is the checkpoint interval (default 120 s — shorter than
	// the paper's 900 s so a bounded horizon sees several lines).
	Interval time.Duration
	// Horizon is the simulated run length (default 20 intervals).
	Horizon time.Duration
	// Failures is the number of seeded crashes, evenly spaced over the
	// horizon with rotating victims (default 1; 0 measures the
	// failure-free baseline).
	Failures int
	// CrashAt, when positive, pins the crash to this instant instead of
	// the even spacing. Requires Failures == 1 (an explicit instant and a
	// spaced schedule contradict each other).
	CrashAt time.Duration
	// RestartAfter is each victim's down window (default 30 s).
	RestartAfter time.Duration
	// Mutation seeds a recovery-path bug (internal/explore's oracle
	// fodder); leave zero for the correct executor.
	Mutation recovery.Mutation
}

func (c RecoveryConfig) defaults() RecoveryConfig {
	if c.Algorithm == "" {
		c.Algorithm = AlgoMutable
	}
	if c.N == 0 {
		c.N = 8
	}
	if c.Rate == 0 {
		c.Rate = 1
	}
	if c.Interval == 0 {
		c.Interval = 120 * time.Second
	}
	if c.Horizon == 0 {
		c.Horizon = 20 * c.Interval
	}
	if c.RestartAfter == 0 {
		c.RestartAfter = 30 * time.Second
	}
	return c
}

// crashPlans spaces cfg.Failures crashes evenly over the horizon with
// rotating victims. The spacing must exceed the down window: overlapping
// outages would ask the executor to roll back a process that is itself
// down.
func (c RecoveryConfig) crashPlans() ([]simrt.CrashPlan, error) {
	if c.Failures < 0 {
		return nil, fmt.Errorf("harness: negative failure count %d", c.Failures)
	}
	if c.Failures == 0 {
		if c.CrashAt > 0 {
			return nil, fmt.Errorf("harness: CrashAt %v set on a failure-free run", c.CrashAt)
		}
		return nil, nil
	}
	if c.CrashAt > 0 {
		if c.Failures != 1 {
			return nil, fmt.Errorf("harness: CrashAt pins a single crash, got %d failures", c.Failures)
		}
		if c.CrashAt+c.RestartAfter+c.Interval > c.Horizon {
			return nil, fmt.Errorf("harness: crash at %v + %v down window leaves the resumed run less than one %v checkpoint interval before the horizon (%v)",
				c.CrashAt, c.RestartAfter, c.Interval, c.Horizon)
		}
		return []simrt.CrashPlan{{Proc: 0, At: c.CrashAt, RestartAfter: c.RestartAfter}}, nil
	}
	spacing := c.Horizon / time.Duration(c.Failures+1)
	if spacing <= c.RestartAfter {
		return nil, fmt.Errorf("harness: %d failures over %v leave %v between crashes, not above the %v down window",
			c.Failures, c.Horizon, spacing, c.RestartAfter)
	}
	plans := make([]simrt.CrashPlan, 0, c.Failures)
	for i := 0; i < c.Failures; i++ {
		plans = append(plans, simrt.CrashPlan{
			Proc:         protocol.ProcessID(i % c.N),
			At:           time.Duration(i+1) * spacing,
			RestartAfter: c.RestartAfter,
		})
	}
	return plans, nil
}

// RecoveryResult aggregates one crash-and-recover run.
type RecoveryResult struct {
	Config RecoveryConfig
	Mode   recovery.Mode
	// Reports holds one executor report per recovered crash, in order.
	Reports []*recovery.Report

	Crashes       uint64
	Restarts      uint64
	RecoveryTime  time.Duration // summed victim down-to-live time
	PeerRollbacks uint64
	Replayed      uint64
	Deduped       uint64

	// PostRecoveryOK is the orphan/duplicate check on the live states,
	// taken synchronously inside each recovery event (before new traffic
	// can mask a violation). False if any recovery left the cluster
	// inconsistent.
	PostRecoveryOK  bool
	PostRecoveryErr error

	// NewCommits counts instances committed after the last restart: the
	// resumed computation must make checkpointing progress.
	NewCommits int

	// SysMsgsPerInit is the failure-free overhead axis: checkpointing
	// system messages per completed initiation.
	SysMsgsPerInit float64
	// LoggedMsgs is the log-based family's overhead axis: sender-log
	// entries accumulated over the run (0 unless message logging is on).
	LoggedMsgs uint64

	Initiations   int
	ClusterErrors []error
}

// RunRecovery executes one crash-and-recover experiment.
func RunRecovery(cfg RecoveryConfig) (*RecoveryResult, error) {
	cfg = cfg.defaults()
	factory, err := algorithms.New(cfg.Algorithm)
	if err != nil {
		return nil, err
	}
	plans, err := cfg.crashPlans()
	if err != nil {
		return nil, err
	}
	mode := RecoveryModeFor(cfg.Algorithm)
	cluster, err := simrt.New(simrt.Config{
		N:                   cfg.N,
		Seed:                cfg.Seed,
		NewEngine:           factory,
		CheckpointInterval:  cfg.Interval,
		ScheduleCheckpoints: true,
		SingleInitiation:    true,
		MessageLogging:      mode == recovery.ModeLog,
	})
	if err != nil {
		return nil, err
	}
	exec, err := recovery.NewExecutor(cluster, recovery.ExecOptions{Mode: mode, Mutation: cfg.Mutation})
	if err != nil {
		return nil, err
	}
	if err := exec.Install(plans); err != nil {
		return nil, err
	}
	gen := &simrt.PointToPoint{Rate: cfg.Rate}
	gen.Install(cluster)
	cluster.Start()
	if err := cluster.Run(cfg.Horizon); err != nil {
		return nil, fmt.Errorf("harness: recovery run: %w", err)
	}
	gen.Stop()
	cluster.StopTimers()
	if err := cluster.Drain(); err != nil {
		return nil, fmt.Errorf("harness: recovery drain: %w", err)
	}

	met := cluster.Metrics()
	res := &RecoveryResult{
		Config:          cfg,
		Mode:            mode,
		Reports:         exec.Reports(),
		Crashes:         met.Crashes,
		Restarts:        met.Restarts,
		RecoveryTime:    met.RecoveryTime,
		PeerRollbacks:   met.PeerRollbacks,
		Replayed:        met.ReplayedMessages,
		Deduped:         met.DedupedReplays,
		PostRecoveryOK:  exec.Inconsistent() == nil,
		PostRecoveryErr: exec.Inconsistent(),
		ClusterErrors:   cluster.Errors(),
	}

	var lastRestart time.Duration
	for _, p := range plans {
		if end := p.At + p.RestartAfter; end > lastRestart {
			lastRestart = end
		}
	}
	for _, rec := range met.Completed() {
		if !rec.Committed {
			continue
		}
		res.Initiations++
		if rec.Start > lastRestart {
			res.NewCommits++
		}
	}
	if res.Initiations > 0 {
		res.SysMsgsPerInit = float64(met.SysMsgs) / float64(res.Initiations)
	}
	if mode == recovery.ModeLog {
		for p := 0; p < cfg.N; p++ {
			for q := 0; q < cfg.N; q++ {
				if p != q {
					res.LoggedMsgs += cluster.Proc(p).LoggedSends(protocol.ProcessID(q))
				}
			}
		}
	}
	return res, nil
}

// RecoveryFamilies is the Table-1-style four-family comparison set.
func RecoveryFamilies() []string {
	return []string{AlgoKooToueg, AlgoElnozahy, AlgoMutable, AlgoLogBased}
}

// RecoveryRow is one point of the failure-rate sweep, averaged over
// seeds: an algorithm family at a seeded failure count.
type RecoveryRow struct {
	Algorithm string
	Failures  int
	// RecoverySec is the mean down-to-live time per failure (seconds).
	RecoverySec float64
	// PeerRollbacks is the mean number of *other* processes rolled back
	// per failure — the paper's headline recovery-scope axis.
	PeerRollbacks float64
	// Replayed is the mean number of messages redelivered per failure.
	Replayed float64
	// SysMsgsPerInit is the failure-free overhead: checkpoint system
	// messages per committed initiation.
	SysMsgsPerInit float64
	// LoggedMsgs is the sender-log growth over the run (log-based only).
	LoggedMsgs float64
}

// RecoverySweep runs the four-family comparison across seeded failure
// counts: every (family, failures, seed) cell is one executed
// crash-and-recover simulation. Any cell that ends inconsistent or
// without post-recovery progress fails the sweep.
func RecoverySweep(failures []int, seeds []uint64, base RecoveryConfig) ([]RecoveryRow, error) {
	if len(failures) == 0 {
		failures = []int{0, 1, 2, 4}
	}
	if len(seeds) == 0 {
		seeds = []uint64{1}
	}
	var rows []RecoveryRow
	for _, algo := range RecoveryFamilies() {
		for _, f := range failures {
			row := RecoveryRow{Algorithm: algo, Failures: f}
			for _, seed := range seeds {
				cfg := base
				cfg.Algorithm = algo
				cfg.Failures = f
				cfg.Seed = seed
				res, err := RunRecovery(cfg)
				if err != nil {
					return nil, fmt.Errorf("%s failures=%d seed=%d: %w", algo, f, seed, err)
				}
				if len(res.ClusterErrors) > 0 {
					return nil, fmt.Errorf("%s failures=%d seed=%d: cluster: %v", algo, f, seed, res.ClusterErrors[0])
				}
				if !res.PostRecoveryOK {
					return nil, fmt.Errorf("%s failures=%d seed=%d: post-recovery: %v", algo, f, seed, res.PostRecoveryErr)
				}
				if int(res.Restarts) != f {
					return nil, fmt.Errorf("%s failures=%d seed=%d: %d restarts", algo, f, seed, res.Restarts)
				}
				if f > 0 && res.NewCommits == 0 {
					return nil, fmt.Errorf("%s failures=%d seed=%d: no commit after recovery", algo, f, seed)
				}
				if f > 0 {
					row.RecoverySec += res.RecoveryTime.Seconds() / float64(f)
					row.PeerRollbacks += float64(res.PeerRollbacks) / float64(f)
					row.Replayed += float64(res.Replayed) / float64(f)
				}
				row.SysMsgsPerInit += res.SysMsgsPerInit
				row.LoggedMsgs += float64(res.LoggedMsgs)
			}
			k := float64(len(seeds))
			row.RecoverySec /= k
			row.PeerRollbacks /= k
			row.Replayed /= k
			row.SysMsgsPerInit /= k
			row.LoggedMsgs /= k
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// FormatRecovery renders the E21 comparison table.
func FormatRecovery(base RecoveryConfig, rows []RecoveryRow) string {
	base = base.defaults()
	var b strings.Builder
	fmt.Fprintf(&b, "Executed recovery comparison (N=%d, rate %g msg/s/process, interval %v, restart after %v)\n",
		base.N, base.Rate, base.Interval, base.RestartAfter)
	fmt.Fprintf(&b, "%-12s %-9s %-12s %-15s %-10s %-14s %-12s\n",
		"algorithm", "failures", "recovery(s)", "peer-rollbacks", "replayed", "sysmsgs/init", "logged")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %-9d %-12.1f %-15.1f %-10.1f %-14.1f %-12.0f\n",
			r.Algorithm, r.Failures, r.RecoverySec, r.PeerRollbacks, r.Replayed, r.SysMsgsPerInit, r.LoggedMsgs)
	}
	return b.String()
}

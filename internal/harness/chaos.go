package harness

// The chaos gauntlet: runs the mutable-checkpointing engine over the full
// unreliable stack — netsim.Reliable's ARQ on top of netsim.Faulty on top
// of the shared wireless LAN — and verifies that the protocol's safety
// properties survive message loss, duplication, jitter, partition windows,
// and fail-stop crashes:
//
//   - every committed global checkpoint is free of orphan messages, checked
//     line by line as the run's permanent history replays;
//   - every instance that did not commit left nothing behind: no tentative
//     or mutable checkpoint leaks on any live process, and no initiator is
//     still holding termination weight after the drain;
//   - identical seed + fault configuration reproduce byte-identical
//     metrics (the Fingerprint field).
//
// The first two are simrt's run audit (AuditLines, AuditLeaks), the same
// oracle the model checker applies. Instances whose *initiator* is still
// down at the end are exempt from the leak check: their participants
// legitimately hold tentative checkpoints that only the MSS-side recovery
// procedure (future work, see ROADMAP) would resolve.

import (
	"fmt"
	"strings"
	"time"

	"mutablecp/internal/checkpoint"
	"mutablecp/internal/core"
	"mutablecp/internal/des"
	"mutablecp/internal/netsim"
	"mutablecp/internal/protocol"
	"mutablecp/internal/recovery"
	"mutablecp/internal/simrt"
	"mutablecp/internal/stable"
)

// ChaosConfig describes one chaos-gauntlet run. The zero value takes the
// defaults below; fault fields at zero inject nothing of that kind.
type ChaosConfig struct {
	N    int
	Seed uint64
	// Rate is the per-process point-to-point message rate (msgs/s).
	Rate float64
	// Interval is the per-process checkpoint interval (default 300 s —
	// shorter than the paper's 900 s so one run exercises many instances).
	Interval time.Duration
	// Horizon is the simulated run length (default 12 intervals).
	Horizon time.Duration
	// RequestTimeout is the §3.6 initiator give-up timer (default 120 s).
	// It must exceed the partition window plus the ARQ recovery time, or
	// healthy instances abort spuriously.
	RequestTimeout time.Duration
	// PartialCommit selects the Kim–Park resolution on timeout with a
	// known crashed process: the uncontaminated subtree still commits.
	PartialCommit bool

	// Drop and Dup are per-message probabilities in [0, 1).
	Drop float64
	Dup  float64
	// JitterMax is the maximum extra per-copy delivery delay.
	JitterMax time.Duration
	// PartitionWindow, when positive, cuts the cluster in half (low pids
	// vs high pids) for that long, starting at Horizon/3.
	PartitionWindow time.Duration
	// CrashCount fail-stops the highest-numbered processes at Horizon/2.
	CrashCount int
	// CrashRestartAfter, when positive, turns the crash into a
	// crash-and-recover: the victim's network window heals that long after
	// the crash and the recovery executor rolls the whole cluster back to
	// the newest committed line, live. Requires CrashCount == 1 (recovery
	// restores every process, so a second victim must not still be down).
	// Messages the ARQ abandons during the outage are recovered by the
	// rollback's channel-deficit replay.
	CrashRestartAfter time.Duration

	// StoreDir, when non-empty, backs the stable stores with the durable
	// internal/stable log under this directory (each seed in its own
	// seed-<n> subdirectory, so one StoreDir serves a whole gauntlet). The
	// post-run audit then also proves the on-disk image reproduces the
	// verified state.
	StoreDir string
	// MSSRestart crashes and restarts every support station's storage at
	// Horizon/2, mid-protocol: stores close and recover from disk while
	// instances are in flight. Requires StoreDir — with the in-memory
	// backend the restart would (correctly, and fatally for the run)
	// lose every checkpoint.
	MSSRestart bool
}

func (c ChaosConfig) defaults() ChaosConfig {
	if c.N == 0 {
		c.N = 8
	}
	if c.Rate == 0 {
		c.Rate = 2
	}
	if c.Interval == 0 {
		c.Interval = 300 * time.Second
	}
	if c.Horizon == 0 {
		c.Horizon = 12 * c.Interval
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 120 * time.Second
	}
	return c
}

// faultConfig assembles the netsim.FaultConfig for this run.
func (c ChaosConfig) faultConfig() netsim.FaultConfig {
	fc := netsim.FaultConfig{
		Seed:      c.Seed,
		Drop:      c.Drop,
		Dup:       c.Dup,
		JitterMax: c.JitterMax,
	}
	if c.PartitionWindow > 0 {
		groupA := make([]protocol.ProcessID, 0, c.N/2)
		for p := 0; p < c.N/2; p++ {
			groupA = append(groupA, p)
		}
		start := c.Horizon / 3
		fc.Partitions = []netsim.Partition{
			{From: start, Until: start + c.PartitionWindow, GroupA: groupA},
		}
	}
	if c.CrashCount > 0 {
		fc.CrashAt = make(map[protocol.ProcessID]time.Duration, c.CrashCount)
		for i := 0; i < c.CrashCount; i++ {
			fc.CrashAt[c.N-1-i] = c.Horizon / 2
		}
		if c.CrashRestartAfter > 0 {
			fc.RestartAt = make(map[protocol.ProcessID]time.Duration, c.CrashCount)
			for p, at := range fc.CrashAt {
				fc.RestartAt[p] = at + c.CrashRestartAfter
			}
		}
	}
	return fc
}

// ChaosResult aggregates one chaos run plus its verification verdicts.
type ChaosResult struct {
	Config ChaosConfig

	// Committed counts terminated instances that produced at least one
	// permanent checkpoint (full or partial commits); Aborted counts
	// terminated instances that produced none.
	Committed int
	Aborted   int
	// LinesChecked is the number of reconstructed global checkpoint lines
	// that passed the orphan check (one per committed instance).
	LinesChecked int

	TimeoutAborts uint64
	Rel           netsim.ReliableMetrics

	Dropped           uint64
	Duplicated        uint64
	Jittered          uint64
	PartitionDropped  uint64
	CrashDropped      uint64
	RevivedDeliveries uint64

	// Crash-and-recover verdict (CrashRestartAfter > 0 only). RecoveredOK
	// requires: the victim restarted exactly once, the live states were
	// consistent immediately after the recovery event, and the resumed run
	// committed at least one new line.
	RecoveredOK   bool
	Restarts      uint64
	PeerRollbacks uint64
	Replayed      uint64
	RecoveryTime  time.Duration

	SimulatedEvents uint64

	// Fingerprint is a deterministic digest of every counter above: equal
	// seeds and fault configs must produce equal fingerprints.
	Fingerprint string
}

// RunChaos executes one chaos run and verifies it. A non-nil error means
// either an infrastructure failure or a protocol-safety violation (orphan
// line, leaked checkpoint, unreturned weight).
func RunChaos(cfg ChaosConfig) (*ChaosResult, error) {
	cfg = cfg.defaults()
	if cfg.MSSRestart && cfg.StoreDir == "" {
		return nil, fmt.Errorf("chaos: MSSRestart requires StoreDir (an in-memory store cannot survive a storage restart)")
	}
	if cfg.CrashRestartAfter > 0 && cfg.CrashCount != 1 {
		return nil, fmt.Errorf("chaos: CrashRestartAfter needs exactly one victim, got CrashCount=%d", cfg.CrashCount)
	}
	fc := cfg.faultConfig()

	var faulty *netsim.Faulty
	var rel *netsim.Reliable
	simCfg := simrt.Config{
		N:                     cfg.N,
		Seed:                  cfg.Seed,
		NewEngine:             func(env protocol.Env) protocol.Engine { return core.New(env) },
		CheckpointInterval:    cfg.Interval,
		ScheduleCheckpoints:   true,
		SingleInitiation:      true,
		RequestTimeout:        cfg.RequestTimeout,
		PartialAbortOnFailure: cfg.PartialCommit,
		NewTransport: func(sim *des.Simulator, n int) netsim.Transport {
			lan := netsim.NewLAN(sim, n, netsim.WirelessLAN2Mbps)
			faulty = netsim.NewFaulty(sim, lan, n, fc)
			rel = netsim.NewReliable(sim, faulty, n, netsim.ReliableConfig{})
			return rel
		},
	}
	// The line audit replays the full permanent history, so the
	// durable stores run in audit mode (Keep=0: no compaction).
	storeOpts := stable.Options{}
	if cfg.StoreDir != "" {
		dir := storeSeedDir(cfg.StoreDir, cfg.Seed)
		simCfg.NewStore = func(pid protocol.ProcessID, n int) (checkpoint.Store, error) {
			return stable.Open(stable.ProcDir(dir, pid), pid, n, storeOpts)
		}
	}
	cluster, err := simrt.New(simCfg)
	if err != nil {
		return nil, err
	}

	gen := &simrt.PointToPoint{Rate: cfg.Rate}
	gen.Install(cluster)
	// Fail-stop the victims at the transport's crash instant: the host
	// stops generating traffic and loses its volatile state exactly when
	// the network stops carrying its frames. Iterate in process order, not
	// map order — same-instant events execute in schedule order.
	var exec *recovery.Executor
	if cfg.CrashRestartAfter > 0 {
		exec, err = recovery.NewExecutor(cluster, recovery.ExecOptions{Mode: recovery.ModeRollback})
		if err != nil {
			return nil, fmt.Errorf("chaos: %w", err)
		}
		victim := protocol.ProcessID(cfg.N - 1)
		plans := []simrt.CrashPlan{{
			Proc: victim, At: fc.CrashAt[victim], RestartAfter: cfg.CrashRestartAfter,
		}}
		if err := exec.Install(plans); err != nil {
			return nil, fmt.Errorf("chaos: %w", err)
		}
	} else {
		for victim := 0; victim < cfg.N; victim++ {
			if at, ok := fc.CrashAt[victim]; ok {
				v := cluster.Proc(victim)
				cluster.Sim().Schedule(at, v.Fail)
			}
		}
	}
	// The MSS storage restart lands at the same midpoint as the host
	// crashes: storage recovers from disk mid-protocol, with instances in
	// flight, and the run must not notice.
	var restartErr error
	if cfg.MSSRestart {
		cluster.Sim().Schedule(cfg.Horizon/2, func() {
			if err := cluster.RestartStores(); err != nil && restartErr == nil {
				restartErr = err
			}
		})
	}
	cluster.Start()

	if err := cluster.Run(cfg.Horizon); err != nil {
		return nil, fmt.Errorf("chaos: run: %w", err)
	}
	if restartErr != nil {
		return nil, fmt.Errorf("chaos: MSS restart: %w", restartErr)
	}
	gen.Stop()
	cluster.StopTimers()
	if err := cluster.Drain(); err != nil {
		return nil, fmt.Errorf("chaos: drain: %w", err)
	}
	for _, e := range cluster.Errors() {
		return nil, fmt.Errorf("chaos: cluster invariant: %w", e)
	}

	met := cluster.Metrics()
	res := &ChaosResult{
		Config:            cfg,
		TimeoutAborts:     met.TimeoutAborts,
		Rel:               rel.Metrics,
		Dropped:           faulty.Dropped,
		Duplicated:        faulty.Duplicated,
		Jittered:          faulty.Jittered,
		PartitionDropped:  faulty.PartitionDropped,
		CrashDropped:      faulty.CrashDropped,
		RevivedDeliveries: faulty.RevivedDeliveries,
		Restarts:          met.Restarts,
		PeerRollbacks:     met.PeerRollbacks,
		Replayed:          met.ReplayedMessages,
		RecoveryTime:      met.RecoveryTime,
		SimulatedEvents:   cluster.Executed(),
	}
	// A crash that was never recovered leaves its victim down, which is
	// how the audit knows to exempt it.
	if res.Committed, res.Aborted, err = cluster.AuditLines(); err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	res.LinesChecked = res.Committed
	if err := cluster.AuditLeaks(); err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	if exec != nil {
		if err := exec.Inconsistent(); err != nil {
			return nil, fmt.Errorf("chaos: post-recovery live state: %w", err)
		}
		if n := len(exec.Reports()); n != 1 || res.Restarts != 1 {
			return nil, fmt.Errorf("chaos: %d recoveries, %d restarts, want 1/1", n, res.Restarts)
		}
		restartAt := fc.CrashAt[protocol.ProcessID(cfg.N-1)] + cfg.CrashRestartAfter
		newCommits := 0
		for _, rec := range met.Completed() {
			if rec.Committed && rec.Start > restartAt {
				newCommits++
			}
		}
		if newCommits == 0 {
			return nil, fmt.Errorf("chaos: no line committed after the recovery at %v", restartAt)
		}
		res.RecoveredOK = true
	}
	if cfg.StoreDir != "" {
		// Everything the audit just accepted must survive a final storage
		// restart: reopen every store from disk and compare it against the
		// audited in-memory image.
		if err := cluster.VerifyStoreRestart(); err != nil {
			return nil, fmt.Errorf("chaos: final store restart: %w", err)
		}
	}
	res.Fingerprint = fmt.Sprintf(
		"committed=%d aborted=%d lines=%d timeouts=%d rel=%+v drop=%d dup=%d jit=%d part=%d crash=%d revived=%d restarts=%d peers=%d replayed=%d rt=%v recovered=%v events=%d",
		res.Committed, res.Aborted, res.LinesChecked, res.TimeoutAborts, res.Rel,
		res.Dropped, res.Duplicated, res.Jittered, res.PartitionDropped, res.CrashDropped,
		res.RevivedDeliveries, res.Restarts, res.PeerRollbacks, res.Replayed, res.RecoveryTime,
		res.RecoveredOK, res.SimulatedEvents)
	return res, nil
}

// ChaosPoint is one operating point of the gauntlet grid.
type ChaosPoint struct {
	Label  string
	Config ChaosConfig // Seed is overwritten per gauntlet seed
}

// DefaultChaosPoints is the standard gauntlet: a fault-free control plus
// four faulty points sweeping the loss rate from 0 to 20%, all with
// duplication, jitter, and a partition window, the heavier ones with a
// fail-stop crash.
func DefaultChaosPoints() []ChaosPoint {
	return []ChaosPoint{
		{Label: "clean", Config: ChaosConfig{}},
		{Label: "drop0", Config: ChaosConfig{
			Dup: 0.05, JitterMax: 5 * time.Millisecond, PartitionWindow: 10 * time.Second,
		}},
		{Label: "drop5", Config: ChaosConfig{
			Drop: 0.05, Dup: 0.05, JitterMax: 5 * time.Millisecond,
			PartitionWindow: 10 * time.Second, CrashCount: 1,
		}},
		{Label: "drop10", Config: ChaosConfig{
			Drop: 0.10, Dup: 0.05, JitterMax: 5 * time.Millisecond,
			PartitionWindow: 10 * time.Second, CrashCount: 1, PartialCommit: true,
		}},
		{Label: "drop20", Config: ChaosConfig{
			Drop: 0.20, Dup: 0.10, JitterMax: 10 * time.Millisecond,
			PartitionWindow: 10 * time.Second, CrashCount: 1,
		}},
		// The crash is recovered live 20 s later (under the ~30 s ARQ
		// give-up): coordinated rollback, post-recovery consistency, and a
		// RecoveredOK verdict on top of the usual line checks.
		{Label: "recover", Config: ChaosConfig{
			Drop: 0.05, Dup: 0.05, JitterMax: 5 * time.Millisecond,
			PartitionWindow: 10 * time.Second, CrashCount: 1,
			CrashRestartAfter: 20 * time.Second,
		}},
	}
}

// ChaosRow aggregates one operating point across all gauntlet seeds.
type ChaosRow struct {
	Label string
	Seeds int

	Committed     int
	Aborted       int
	LinesChecked  int
	TimeoutAborts uint64

	Retransmissions uint64
	DupsSuppressed  uint64
	GaveUp          uint64

	Dropped          uint64
	Duplicated       uint64
	PartitionDropped uint64
	CrashDropped     uint64

	// Recovered counts seeds whose crash-and-recover verdict was OK
	// (equals Seeds on recover points — RunChaos fails otherwise — and 0
	// on plain points).
	Recovered int
}

// ChaosGauntlet runs every operating point across every seed and verifies
// each run. Every (point, seed) cell is an independent simulation. On
// failure the error names the first failing point and seed in
// deterministic grid order, regardless of worker count.
func (r *Runner) ChaosGauntlet(points []ChaosPoint, seeds []uint64) ([]ChaosRow, error) {
	if len(points) == 0 {
		points = DefaultChaosPoints()
	}
	if len(seeds) == 0 {
		return nil, fmt.Errorf("harness: no seeds")
	}
	nS := len(seeds)
	flat, err := RunJobs(r.Workers(), len(points)*nS, func(i int) (*ChaosResult, error) {
		cfg := points[i/nS].Config
		cfg.Seed = seeds[i%nS]
		res, err := RunChaos(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: seed %d: %w", points[i/nS].Label, cfg.Seed, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([]ChaosRow, len(points))
	for pi, pt := range points {
		row := ChaosRow{Label: pt.Label, Seeds: nS}
		for si := 0; si < nS; si++ {
			res := flat[pi*nS+si]
			row.Committed += res.Committed
			row.Aborted += res.Aborted
			row.LinesChecked += res.LinesChecked
			row.TimeoutAborts += res.TimeoutAborts
			row.Retransmissions += res.Rel.Retransmissions
			row.DupsSuppressed += res.Rel.DupsSuppressed
			row.GaveUp += res.Rel.GaveUp
			row.Dropped += res.Dropped
			row.Duplicated += res.Duplicated
			row.PartitionDropped += res.PartitionDropped
			row.CrashDropped += res.CrashDropped
			if res.RecoveredOK {
				row.Recovered++
			}
		}
		rows[pi] = row
	}
	return rows, nil
}

// FormatChaos renders the gauntlet outcome as a table.
func FormatChaos(rows []ChaosRow) string {
	var b strings.Builder
	b.WriteString("Chaos gauntlet: committed lines orphan-checked at every operating point\n")
	fmt.Fprintf(&b, "%-8s %-6s %-10s %-8s %-9s %-8s %-8s %-8s %-8s %-8s %-9s\n",
		"point", "seeds", "committed", "aborted", "timeouts", "retrans", "dupsup", "dropped", "partcut", "crashcut", "recovered")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %-6d %-10d %-8d %-9d %-8d %-8d %-8d %-8d %-8d %-9d\n",
			r.Label, r.Seeds, r.Committed, r.Aborted, r.TimeoutAborts,
			r.Retransmissions, r.DupsSuppressed, r.Dropped, r.PartitionDropped, r.CrashDropped,
			r.Recovered)
	}
	return b.String()
}

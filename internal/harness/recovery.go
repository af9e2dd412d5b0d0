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

// SpacedCrashes spaces failures crashes evenly over cfg's horizon with
// rotating victims (P0, P1, ...), each down for the given window. Run
// rejects the plans if the outages overlap or the last restart leaves no
// checkpoint interval before the horizon.
func SpacedCrashes(cfg Config, failures int, down time.Duration) []simrt.CrashPlan {
	if failures <= 0 {
		return nil
	}
	cfg = cfg.defaults()
	spacing := cfg.Horizon / time.Duration(failures+1)
	plans := make([]simrt.CrashPlan, 0, failures)
	for i := 0; i < failures; i++ {
		plans = append(plans, simrt.CrashPlan{
			Proc:         protocol.ProcessID(i % cfg.N),
			At:           time.Duration(i+1) * spacing,
			RestartAfter: down,
		})
	}
	return plans
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
// counts: every (family, failures, seed) cell is one run of base with
// SpacedCrashes(failures, down). Any cell with a failed verdict fails the
// sweep.
func (r *Runner) RecoverySweep(failures []int, seeds []uint64, base Config, down time.Duration) ([]RecoveryRow, error) {
	if len(failures) == 0 {
		failures = []int{0, 1, 2, 4}
	}
	if len(seeds) == 0 {
		seeds = []uint64{1}
	}
	for _, f := range failures {
		if f < 0 {
			return nil, fmt.Errorf("harness: negative failure count %d", f)
		}
	}
	families, nF, nS := RecoveryFamilies(), len(failures), len(seeds)
	cells := len(families) * nF
	flat, err := r.runCells(cells, seeds, func(cell int) Config {
		cfg := base
		cfg.Algorithm = families[cell/nF]
		cfg.Crashes = SpacedCrashes(base, failures[cell%nF], down)
		return cfg
	}, func(cell int) string {
		return fmt.Sprintf("%s failures=%d", families[cell/nF], failures[cell%nF])
	}, true)
	if err != nil {
		return nil, err
	}
	rows := make([]RecoveryRow, 0, cells)
	for c := 0; c < cells; c++ {
		row := RecoveryRow{Algorithm: families[c/nF], Failures: failures[c%nF]}
		for _, res := range flat[c*nS : (c+1)*nS] {
			if f := float64(row.Failures); f > 0 {
				row.RecoverySec += res.RecoveryTime.Seconds() / f
				row.PeerRollbacks += float64(res.PeerRollbacks) / f
				row.Replayed += float64(res.Replayed) / f
			}
			if res.Committed > 0 {
				row.SysMsgsPerInit += float64(res.TotalSysMsgs) / float64(res.Committed)
			}
			row.LoggedMsgs += float64(res.LoggedMsgs)
		}
		for _, mean := range []*float64{&row.RecoverySec, &row.PeerRollbacks, &row.Replayed, &row.SysMsgsPerInit, &row.LoggedMsgs} {
			*mean /= float64(nS)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatRecovery renders the E21 comparison table.
func FormatRecovery(base Config, down time.Duration, rows []RecoveryRow) string {
	base = base.defaults()
	var b strings.Builder
	fmt.Fprintf(&b, "Executed recovery comparison (N=%d, rate %g msg/s/process, interval %v, restart after %v)\n",
		base.N, base.Rate, base.Interval, down)
	fmt.Fprintf(&b, "%-12s %-9s %-12s %-15s %-10s %-14s %-12s\n",
		"algorithm", "failures", "recovery(s)", "peer-rollbacks", "replayed", "sysmsgs/init", "logged")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %-9d %-12.1f %-15.1f %-10.1f %-14.1f %-12.0f\n",
			r.Algorithm, r.Failures, r.RecoverySec, r.PeerRollbacks, r.Replayed, r.SysMsgsPerInit, r.LoggedMsgs)
	}
	return b.String()
}

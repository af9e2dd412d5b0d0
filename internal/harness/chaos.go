package harness

// The chaos gauntlet: a grid of runs with a Faults section (message loss,
// duplication, jitter, a partition window, fail-stop and recovered
// crashes), each held to simrt's run audit, the oracle the model checker
// applies too: every committed line orphan-free, and no checkpoint or
// termination weight left behind by an instance that did not commit.
// Instances whose initiator is still down at the end are exempt from the
// leak check: only the MSS-side recovery procedure (future work, see
// ROADMAP) would resolve their participants' tentatives.

import (
	"fmt"
	"strings"
	"time"

	"mutablecp/internal/simrt"
)

// ChaosPoint is one operating point of the gauntlet grid.
type ChaosPoint struct {
	Label  string
	Config Config // Seed is overwritten per gauntlet seed
}

// DefaultChaosPoints is the standard gauntlet: a fault-free control plus
// four faulty points sweeping the loss rate from 0 to 20%, all with
// duplication, jitter, and a partition window, the heavier ones with a
// fail-stop crash of the highest pid at mid-run. Every point is 8
// processes at 2 msgs/s with a 300 s checkpoint interval (shorter than the
// paper's 900 s, so one 3600 s run exercises many instances).
func DefaultChaosPoints() []ChaosPoint {
	const horizon = 3600 * time.Second
	point := func(label string, f Faults, crashes ...simrt.CrashPlan) ChaosPoint {
		return ChaosPoint{Label: label, Config: Config{
			N: 8, Rate: 2, Interval: 300 * time.Second, Horizon: horizon,
			Faults: &f, Crashes: crashes,
		}}
	}
	midCrash := simrt.CrashPlan{Proc: 7, At: horizon / 2}
	recovered := midCrash
	recovered.RestartAfter = 20 * time.Second
	return []ChaosPoint{
		point("clean", Faults{}),
		point("drop0", Faults{Dup: 0.05, JitterMax: 5 * time.Millisecond, PartitionWindow: 10 * time.Second}),
		point("drop5", Faults{Drop: 0.05, Dup: 0.05, JitterMax: 5 * time.Millisecond,
			PartitionWindow: 10 * time.Second}, midCrash),
		point("drop10", Faults{Drop: 0.10, Dup: 0.05, JitterMax: 5 * time.Millisecond,
			PartitionWindow: 10 * time.Second, PartialCommit: true}, midCrash),
		point("drop20", Faults{Drop: 0.20, Dup: 0.10, JitterMax: 10 * time.Millisecond,
			PartitionWindow: 10 * time.Second}, midCrash),
		// The crash is recovered live 20 s later (under the ~30 s ARQ
		// give-up): coordinated rollback, post-recovery consistency, and a
		// post-recovery verdict on top of the usual line checks.
		point("recover", Faults{Drop: 0.05, Dup: 0.05, JitterMax: 5 * time.Millisecond,
			PartitionWindow: 10 * time.Second}, recovered),
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
	// (equals Seeds on recover points — the gauntlet fails otherwise —
	// and 0 on plain points).
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
	flat, err := r.runCells(len(points), seeds,
		func(cell int) Config { return points[cell].Config },
		func(cell int) string { return points[cell].Label }, true)
	if err != nil {
		return nil, err
	}
	nS := len(seeds)
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
			if restarts(pt.Config.Crashes) && res.PostRecoveryOK {
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

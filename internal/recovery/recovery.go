// Package recovery implements rollback recovery on top of the coordinated
// checkpoints: after a failure, every process restarts from its most
// recent permanent checkpoint. Because the checkpointing algorithms commit
// only consistent global checkpoints (Theorem 1), the recovery line needs
// no search — it is simply the newest permanent checkpoint of each
// process, which this package validates and the Executor restores on a
// running simulated cluster, replaying the line's in-transit messages.
package recovery

import (
	"fmt"

	"mutablecp/internal/checkpoint"
	"mutablecp/internal/consistency"
	"mutablecp/internal/protocol"
	"mutablecp/internal/stable"
)

// Line is a recovery line: one checkpoint per process.
type Line struct {
	Checkpoints map[protocol.ProcessID]checkpoint.Record
}

// States projects the line to per-process states for consistency checking.
func (l *Line) States() map[protocol.ProcessID]protocol.State {
	out := make(map[protocol.ProcessID]protocol.State, len(l.Checkpoints))
	for id, rec := range l.Checkpoints {
		out[id] = rec.State
	}
	return out
}

// Validate checks the line for orphan messages.
func (l *Line) Validate() error {
	return consistency.Check(l.States())
}

// LatestLine returns the recovery line formed by each process's newest
// permanent checkpoint in the given stable stores (one per process; in
// the paper's system these live at the MSSs and survive MH failures) and
// validates it.
func LatestLine(stores map[protocol.ProcessID]checkpoint.Store) (*Line, error) {
	line := &Line{Checkpoints: make(map[protocol.ProcessID]checkpoint.Record, len(stores))}
	for id, st := range stores {
		line.Checkpoints[id] = st.Permanent()
	}
	if err := line.Validate(); err != nil {
		return nil, fmt.Errorf("recovery: %w", err)
	}
	return line, nil
}

// OpenLine reconstructs the recovery line from the on-disk stable stores
// under root (one internal/stable directory per process, as written by a
// run with durable storage) after a simulated MSS restart. Each store is
// opened — running its crash recovery — read, and closed; the resulting
// line is validated for consistency before being returned.
func OpenLine(root string, n int, opts stable.Options) (*Line, error) {
	line := &Line{Checkpoints: make(map[protocol.ProcessID]checkpoint.Record, n)}
	for pid := 0; pid < n; pid++ {
		st, err := stable.Open(stable.ProcDir(root, pid), pid, n, opts)
		if err != nil {
			return nil, fmt.Errorf("recovery: open P%d store: %w", pid, err)
		}
		line.Checkpoints[pid] = st.Permanent()
		if err := st.Close(); err != nil {
			return nil, fmt.Errorf("recovery: close P%d store: %w", pid, err)
		}
	}
	if err := line.Validate(); err != nil {
		return nil, fmt.Errorf("recovery: on-disk line: %w", err)
	}
	return line, nil
}

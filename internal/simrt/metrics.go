package simrt

import (
	"sort"
	"time"

	"mutablecp/internal/protocol"
)

// InitiationRecord aggregates everything one checkpointing instance did.
// Mutable checkpoints are attributed to the initiation whose trigger caused
// them, matching the paper's per-initiation reporting in §5.2.
type InitiationRecord struct {
	Trigger   protocol.Trigger
	Initiator protocol.ProcessID
	Start     time.Duration
	End       time.Duration
	Done      bool
	Committed bool

	Tentative int // stable checkpoints written (initiator + inherited + promoted)
	Promoted  int // of which were promoted mutable checkpoints
	Mutable   int // mutable checkpoints taken for this trigger
	Discarded int // redundant mutable checkpoints (never promoted)

	Requests int // checkpoint request messages
	Replies  int // reply messages
	Commits  int // commit/abort dissemination messages (1 per broadcast)
	SysMsgs  int // total system messages attributed to this instance
	SysBytes int

	BlockedTime time.Duration // total computation blocking across processes
}

// Duration returns the checkpointing time (initiation to termination); the
// paper's T_ch and, per §5.3, the output-commit delay.
func (r *InitiationRecord) Duration() time.Duration {
	if !r.Done {
		return 0
	}
	return r.End - r.Start
}

// Metrics collects cluster-wide counters and per-initiation records.
type Metrics struct {
	CompMsgs  uint64
	CompBytes uint64
	SysMsgs   uint64
	SysBytes  uint64

	// Global checkpoint counters (independent of per-initiation
	// attribution; robust even when an instance never terminates, as the
	// naive avalanche schemes can fail to).
	TotalTentative uint64
	TotalMutable   uint64
	TotalDiscarded uint64
	TotalPermanent uint64

	// TimeoutAborts counts §3.6 request timeouts that fired an abort.
	TimeoutAborts uint64

	// Payload-plane counters (zero in control-plane-only runs). The
	// Logical/New pair is the paper-facing result: LogicalBytes is what a
	// naive full-image transfer would have moved per stable checkpoint,
	// NewBytes what the content-addressed store actually moved.
	PayloadSaves        uint64
	PayloadLogicalBytes uint64
	PayloadNewBytes     uint64
	PayloadNewChunks    uint64
	PayloadDedupChunks  uint64

	// Crash/recovery lifecycle counters.
	Crashes          uint64        // fail-stop events
	Restarts         uint64        // processes brought back to live
	ReplayedMessages uint64        // logged/in-transit messages redelivered during recovery
	DedupedReplays   uint64        // log entries skipped because the checkpoint already covered them
	StaleDropped     uint64        // in-flight deliveries fenced off by an epoch bump
	PeerRollbacks    uint64        // non-failed processes rolled back by a recovery
	RecoveryTime     time.Duration // summed down → live time across restarts

	byTrigger map[protocol.Trigger]*InitiationRecord
	order     []protocol.Trigger
}

func newMetrics() *Metrics {
	return &Metrics{byTrigger: make(map[protocol.Trigger]*InitiationRecord)}
}

// record returns (creating if needed) the record for a trigger.
func (m *Metrics) record(trig protocol.Trigger, now time.Duration) *InitiationRecord {
	if rec, ok := m.byTrigger[trig]; ok {
		return rec
	}
	rec := &InitiationRecord{Trigger: trig, Initiator: trig.Pid, Start: now}
	m.byTrigger[trig] = rec
	m.order = append(m.order, trig)
	return rec
}

// Initiations returns all records in start order.
func (m *Metrics) Initiations() []*InitiationRecord {
	out := make([]*InitiationRecord, 0, len(m.order))
	for _, trig := range m.order {
		out = append(out, m.byTrigger[trig])
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// Completed returns only the records of instances that terminated.
func (m *Metrics) Completed() []*InitiationRecord {
	var out []*InitiationRecord
	for _, rec := range m.Initiations() {
		if rec.Done {
			out = append(out, rec)
		}
	}
	return out
}

// Aborted counts terminated instances that ended in an abort: each one is
// a rollback to the previous recovery line for its participants.
func (m *Metrics) Aborted() int {
	n := 0
	for _, rec := range m.byTrigger {
		if rec.Done && !rec.Committed {
			n++
		}
	}
	return n
}

// Record looks up the record for a trigger.
func (m *Metrics) Record(trig protocol.Trigger) (*InitiationRecord, bool) {
	rec, ok := m.byTrigger[trig]
	return rec, ok
}

// purgeRolledBack removes the initiation records of instances the given
// process initiated after its restored checkpoint: the rolled-back
// execution may re-initiate with the same trigger (pid, inum) after
// recovery, and a stale record would absorb the new instance's lifecycle
// events (and fail the line-replay audit with phantom commits).
func (m *Metrics) purgeRolledBack(pid protocol.ProcessID, csn int) {
	kept := m.order[:0]
	for _, trig := range m.order {
		if trig.Pid == pid && trig.Inum > csn {
			delete(m.byTrigger, trig)
			continue
		}
		kept = append(kept, trig)
	}
	m.order = kept
}

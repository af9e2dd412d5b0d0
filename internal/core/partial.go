package core

// Kim–Park partial commit (§3.6). The paper prefers the Kim–Park approach
// to failures during checkpointing: instead of aborting the whole
// instance when one participant fails, processes whose checkpoints do not
// depend (transitively) on the failed process commit, and only the
// contaminated subtree aborts. The consistency argument mirrors
// Theorem 1: if a committed checkpoint recorded a receive from k, the
// receiver depends on k, so k is outside the contaminated closure and
// committed too — the send is recorded.
//
// To compute the closure the initiator needs each participant's
// dependency set; replies therefore carry the dependency vector the
// participant propagated requests along (reusing the MR field, R bits
// only). The partial decision is broadcast as a commit whose MR marks the
// excluded (aborting) processes.

import (
	"fmt"

	"mutablecp/internal/bitset"
	"mutablecp/internal/protocol"
	"mutablecp/internal/trace"
)

// AbortPartial resolves the instance this process initiated after
// participant `failed` crashed, using Kim–Park partial commit: the
// contaminated closure (the failed process plus everyone depending on it,
// transitively, among the participants) aborts; everyone else commits
// locally. Because requests flow along dependency edges, the initiator is
// itself contaminated whenever the failed process was a real participant
// — it then discards its own tentative checkpoint while sibling branches
// of the tree still advance their recovery line, which is exactly the
// improvement over the total abort of [19]. It reports whether the
// initiator's own checkpoint committed.
func (e *Engine) AbortPartial(failed protocol.ProcessID) error {
	return e.abortPartial(map[protocol.ProcessID]bool{failed: true})
}

// AbortPartialStrict is AbortPartial for the case where the initiator does
// not know the full participant set — it timed out rather than received a
// crash notification, so some requests (and their replies) may simply be
// lost. Any process that never replied might hold a tentative checkpoint
// whose dependencies the initiator has not seen; committing past it could
// orphan messages. The strict closure therefore seeds contamination with
// the failed process AND every process that did not reply, and commits
// only the sub-tree whose dependency vectors the initiator actually holds.
// Bystanders that never participated receive the excluded-marked commit
// and harmlessly no-op.
func (e *Engine) AbortPartialStrict(failed protocol.ProcessID) error {
	if !e.initiating {
		return fmt.Errorf("core: process %d is not an active initiator", e.id)
	}
	seed := map[protocol.ProcessID]bool{failed: true}
	for p := 0; p < e.n; p++ {
		if _, replied := e.participantDeps[protocol.ProcessID(p)]; !replied {
			seed[protocol.ProcessID(p)] = true
		}
	}
	return e.abortPartial(seed)
}

func (e *Engine) abortPartial(seed map[protocol.ProcessID]bool) error {
	if !e.initiating {
		return fmt.Errorf("core: process %d is not an active initiator", e.id)
	}
	trig := e.ownTrigger
	contaminated := e.contaminatedClosure(seed)
	e.initiating = false
	e.weight.Reset()
	defer func() { e.participantDeps = nil }()

	excluded := bitset.New(e.n)
	for p := range contaminated {
		excluded.Set(p)
	}
	if e.env.Tracing() {
		e.env.Trace(trace.KindCommit, -1, "partial commit trigger=%v excluded=%v", trig, contaminated)
	}
	out := protocol.NewMessage(e.env)
	*out = protocol.Message{
		Kind:    protocol.KindCommit,
		From:    e.id,
		Trigger: trig,
		MR:      protocol.MRFlags(excluded.Snapshot()),
	}
	e.env.Broadcast(out)
	if contaminated[e.id] {
		e.handleAbort(trig)
		e.env.CheckpointingDone(trig, false)
		return nil
	}
	e.handleCommit(trig)
	e.env.CheckpointingDone(trig, true)
	return nil
}

// contaminatedClosure computes seed ∪ {p : p depends transitively on a
// seed member} from the dependency vectors returned in replies (plus the
// initiator's own).
func (e *Engine) contaminatedClosure(seed map[protocol.ProcessID]bool) map[protocol.ProcessID]bool {
	closure := make(map[protocol.ProcessID]bool, len(seed))
	for p := range seed {
		closure[p] = true
	}
	if len(e.participantDeps) == 0 {
		return closure
	}
	for changed := true; changed; {
		changed = false
		for p, deps := range e.participantDeps {
			if closure[p] || deps.IsZero() {
				continue
			}
			for q := deps.NextSet(0); q >= 0; q = deps.NextSet(q + 1) {
				if closure[q] {
					closure[p] = true
					changed = true
					break
				}
			}
		}
	}
	return closure
}

// recordParticipantDeps stores a participant's dependency vector from its
// reply (initiator side). A missing map entry means "never replied"; a
// participant whose reply carried an empty-but-present vector is recorded
// with a present snapshot, which is how the strict closure tells the two
// apart. The map holds O(participants) entries regardless of N.
func (e *Engine) recordParticipantDeps(p protocol.ProcessID, deps bitset.Snapshot) {
	if e.participantDeps == nil {
		e.participantDeps = make(map[protocol.ProcessID]bitset.Snapshot)
	}
	e.participantDeps[p] = deps
}

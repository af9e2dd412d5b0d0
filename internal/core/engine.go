// Package core implements the Cao–Singhal mutable-checkpoint algorithm
// (§3.3 of the paper): a nonblocking coordinated checkpointing protocol
// that forces only a minimum number of processes to write checkpoints to
// stable storage.
//
// The engine follows the paper's pseudocode with two documented repairs,
// both required to make the published transcription executable (see
// DESIGN.md §4):
//
//  1. MR entries carry an explicit covered flag ("a request has already
//     been sent to this process"). The literal pseudocode suppresses a
//     request whenever max(MR[k].csn, csn_i[k]) == MR[k].csn, which is
//     vacuously true in a fresh system where both are zero — the first
//     initiation would never request anything. The paper's prose ("if P_i
//     knows by MR some other process has sent the request to P_k with
//     req_csn >= csn_i[k]") states the intended condition, which is what
//     we implement.
//  2. A process stores mutable and tentative checkpoints keyed by trigger
//     rather than in a single slot: the paper's own Fig. 3 walk-through has
//     P1 holding mutable checkpoints C1,1 and C1,2 for two concurrent
//     initiations.
package core

import (
	"errors"
	"fmt"
	"sort"

	"mutablecp/internal/bitset"
	"mutablecp/internal/dyadic"
	"mutablecp/internal/intvec"
	"mutablecp/internal/protocol"
	"mutablecp/internal/trace"
)

// ErrCheckpointInProgress is returned by Initiate when this process is
// already inside a checkpointing instance.
var ErrCheckpointInProgress = errors.New("core: checkpointing already in progress")

// CommitDissemination selects how the second phase reaches the system
// (§3.3.5): one radio broadcast, or targeted commits to repliers with
// forwarding along the "sent while cp_state=1" sets (the update approach
// of [6]). Broadcast is cheaper when the last interval had many
// communications; targeted avoids waking dozing hosts.
type CommitDissemination int

// Dissemination modes.
const (
	CommitBroadcast CommitDissemination = iota + 1
	CommitTargeted
)

// Options tunes the engine beyond the paper's defaults.
type Options struct {
	// Dissemination selects the second-phase fan-out; zero means
	// CommitBroadcast (what the paper's evaluation uses).
	Dissemination CommitDissemination
}

// mutableCP is the engine-side bookkeeping for one mutable checkpoint: the
// dependency vector and sent flag captured when it was taken, needed both
// for prop_cp on promotion and for restoration on discard. The vector is a
// copy-on-write snapshot: taking it is O(1), and the live R set copies its
// words only when next mutated.
type mutableCP struct {
	r    bitset.Snapshot
	sent bool
}

// savedContext remembers the variables a tentative checkpoint clobbers so
// an abort (§3.6) can restore them.
type savedContext struct {
	r      bitset.Snapshot
	sent   bool
	oldCSN int
	// csnAt is the csn the tentative checkpoint was taken at. An abort may
	// roll oldCSN back only when this tentative is the one that moved it
	// (csnAt == oldCSN); aborting an older instance while a newer tentative
	// is pending must leave the newer instance's oldCSN in place.
	csnAt int
}

// Engine is the per-process state machine of the mutable-checkpoint
// algorithm. It is not safe for concurrent use; the runtime serializes all
// calls.
type Engine struct {
	env protocol.Env
	id  protocol.ProcessID
	n   int

	// csn holds csn_i[*] for the peers: sparse until this process has
	// heard a nonzero csn from a fixed fraction of them (intvec), and
	// the process's own slot lives in ownCSN instead — a min-process
	// instance touches O(participants) peers, so an idle process at
	// N=1M costs nothing here. Read through csnOf, write through setCSN.
	csn        intvec.Vec
	ownCSN     int              // csn_i[i], the hot PrepareSend read
	r          *bitset.Set      // R_i[*]
	sent       bool             // sent_i
	cpState    bool             // cp_state_i
	oldCSN     int              // old_csn_i
	ownTrigger protocol.Trigger // trigger_i

	// The bookkeeping maps below are nil until first written (reads of a
	// nil map are legal); at large N most processes never participate in
	// any instance and carry six nil words instead of six live maps.
	mutables map[protocol.Trigger]*mutableCP

	opts Options
	// repliers are the processes whose replies the initiator received
	// (targeted dissemination sends commits exactly there).
	repliers map[protocol.ProcessID]bool
	// notifySet are the peers this process sent computation messages to
	// while cp_state=1; the update approach forwards commits along it.
	notifySet map[protocol.ProcessID]bool
	// seenCommits suppresses forwarding loops in targeted dissemination.
	seenCommits map[protocol.Trigger]bool
	// aborted remembers instances this process saw abort (§3.6). Under an
	// unreliable network a propagated request or a triggered computation
	// message can arrive AFTER the initiator's abort broadcast (they travel
	// on different channels, so FIFO does not order them); without this
	// memory the process would take a tentative or mutable checkpoint for a
	// dead instance that nothing will ever commit or discard.
	aborted map[protocol.Trigger]bool

	// Initiator-side state for the instance this process started.
	initiating bool
	weight     dyadic.Sum // the returned shares, exact (Lemma 2)
	// participantDeps collects each participant's dependency vector from
	// its reply, enabling Kim–Park partial commit on failure (§3.6).
	// Keyed by pid; a missing entry means "never replied" — the
	// distinction AbortPartialStrict's contamination seed needs. Nil
	// outside an initiation.
	participantDeps map[protocol.ProcessID]bitset.Snapshot

	// Pending tentative checkpoints (normally at most one) with the saved
	// context needed by the abort path.
	pending map[protocol.Trigger]savedContext

	// mrScratch assembles prop_cp's temp MR without allocating per call;
	// the frozen result is shared by reference across the whole request
	// fan-out (copy-on-write protects it from the next reuse).
	mrScratch *protocol.MRBuilder
	// targetScratch is prop_cp's reusable request-target list, reused by
	// the targeted-dissemination paths for sorted map iteration.
	targetScratch []protocol.ProcessID
}

var (
	_ protocol.Engine    = (*Engine)(nil)
	_ protocol.Initiator = (*Engine)(nil)
)

// New returns an engine for the process identified by env, in a
// computation of env.N() processes, with the paper's default options.
func New(env protocol.Env) *Engine {
	return NewWithOptions(env, Options{})
}

// NewWithOptions returns an engine with explicit tuning options.
func NewWithOptions(env protocol.Env, opts Options) *Engine {
	if opts.Dissemination == 0 {
		opts.Dissemination = CommitBroadcast
	}
	n := env.N()
	return &Engine{
		env:        env,
		id:         env.ID(),
		n:          n,
		csn:        intvec.New(n),
		r:          bitset.New(n),
		mrScratch:  protocol.NewMRBuilder(n),
		ownTrigger: protocol.Trigger{Pid: env.ID(), Inum: 0},
		opts:       opts,
	}
}

// csnOf reads csn_i[k]; peers never heard from read 0.
func (e *Engine) csnOf(k protocol.ProcessID) int {
	if k == e.id {
		return e.ownCSN
	}
	return e.csn.At(k)
}

// setCSN writes csn_i[k], growing the sparse vector on first contact.
func (e *Engine) setCSN(k protocol.ProcessID, v int) {
	if k == e.id {
		e.ownCSN = v
		return
	}
	e.csn.Set(k, v)
}

// Name identifies the algorithm.
func (e *Engine) Name() string { return "mutable" }

// InProgress reports the paper's cp_state.
func (e *Engine) InProgress() bool { return e.cpState }

// CSN exposes a dense copy of the csn vector (tests and tools; the
// rendering is part of the fingerprint format and must not change).
func (e *Engine) CSN() []int {
	out := make([]int, e.n)
	e.csn.Each(func(k, v int) { out[k] = v })
	out[e.id] = e.ownCSN
	return out
}

// DependencyVector exposes a copy of R as []bool (tests and tools; the
// rendering is part of the fingerprint format and must not change).
func (e *Engine) DependencyVector() []bool { return e.r.Bools() }

// Sent exposes the sent_i flag (tests).
func (e *Engine) Sent() bool { return e.sent }

// OwnTrigger names the instance this process initiated last.
func (e *Engine) OwnTrigger() protocol.Trigger { return e.ownTrigger }

// PrepareSend implements the paper's "actions taken when P_i sends a
// computation message": piggyback csn_i[i], and the trigger when inside a
// checkpointing instance.
func (e *Engine) PrepareSend(m *protocol.Message) {
	m.Kind = protocol.KindComputation
	m.CSN = e.ownCSN
	if e.cpState {
		m.Trigger = e.ownTrigger
		if e.opts.Dissemination == CommitTargeted {
			if e.notifySet == nil {
				e.notifySet = make(map[protocol.ProcessID]bool)
			}
			e.notifySet[m.To] = true
		}
	} else {
		m.Trigger = protocol.NoTrigger
	}
	e.sent = true
}

// Initiate starts a checkpointing instance at this process (§3.3.1).
func (e *Engine) Initiate() error {
	if e.cpState {
		return ErrCheckpointInProgress
	}
	e.ownCSN++
	e.ownTrigger = protocol.Trigger{Pid: e.id, Inum: e.ownCSN}
	e.cpState = true
	e.initiating = true
	if e.env.Tracing() {
		e.env.Trace(trace.KindInitiate, -1, "trigger=%v", e.ownTrigger)
	}

	deps := e.r.Snapshot()
	e.mrScratch.Load(protocol.MRVec{})
	e.mrScratch.SetCSN(e.id, e.ownCSN)
	e.mrScratch.SetFlag(e.id)
	e.recordParticipantDeps(e.id, deps)
	e.weight.Reset()
	e.weight.Add(e.propCPLoaded(deps, e.ownTrigger, dyadic.One()))

	e.takeTentative(e.ownTrigger)

	// A dependency-free initiator terminates immediately.
	e.maybeCommit()
	return nil
}

// takeTentative captures the process state, writes it to stable storage,
// and performs the post-checkpoint variable updates shared by the
// initiator and request-inheriting paths.
func (e *Engine) takeTentative(trig protocol.Trigger) {
	if e.pending == nil {
		e.pending = make(map[protocol.Trigger]savedContext)
	}
	e.pending[trig] = savedContext{
		r:      e.r.Snapshot(),
		sent:   e.sent,
		oldCSN: e.oldCSN,
		csnAt:  e.ownCSN,
	}
	st := e.env.CaptureState()
	st.CSN = e.ownCSN
	e.env.SaveTentative(st, trig)
	if e.env.Tracing() {
		e.env.Trace(trace.KindTentative, -1, "csn=%d trigger=%v", st.CSN, trig)
	}
	e.oldCSN = e.ownCSN
	e.sent = false
	e.resetR()
}

func (e *Engine) resetR() { e.r.Reset() }

// propCP implements the paper's prop_cp subroutine: propagate the request
// to every dependency not already covered by MR, halving the carried
// weight per request, and return the remaining weight.
func (e *Engine) propCP(r bitset.Snapshot, mr protocol.MRVec, trig protocol.Trigger, recvWeight dyadic.Weight) dyadic.Weight {
	e.mrScratch.Load(mr)
	return e.propCPLoaded(r, trig, recvWeight)
}

// propCPLoaded is propCP after the caller primed mrScratch with the
// received MR. One frozen MR vector is shared by reference across every
// request of the fan-out — the piggybacked payload costs O(N) words per
// prop_cp instead of O(N) per request.
func (e *Engine) propCPLoaded(r bitset.Snapshot, trig protocol.Trigger, recvWeight dyadic.Weight) dyadic.Weight {
	temp := e.mrScratch
	targets := e.targetScratch[:0]
	for k := r.NextSet(0); k >= 0; k = r.NextSet(k + 1) {
		if k == e.id {
			continue
		}
		kcsn := e.csnOf(k)
		if temp.Flag(k) && temp.CSN(k) >= kcsn {
			// Someone already sent P_k a request with req_csn >= csn_i[k].
			continue
		}
		targets = append(targets, k)
		if kcsn > temp.CSN(k) {
			temp.SetCSN(k, kcsn)
		}
		temp.SetFlag(k)
	}
	e.targetScratch = targets
	w := recvWeight
	if len(targets) == 0 {
		return w
	}
	frozen := temp.Freeze()
	tracing := e.env.Tracing()
	for _, k := range targets {
		w = w.Half()
		req := protocol.NewMessage(e.env)
		*req = protocol.Message{
			Kind:    protocol.KindRequest,
			From:    e.id,
			To:      k,
			CSN:     e.ownCSN,
			Trigger: trig,
			ReqCSN:  e.csnOf(k),
			MR:      frozen,
			Weight:  w,
		}
		if tracing {
			e.env.Trace(trace.KindRequest, k, "req_csn=%d trigger=%v w=%v", req.ReqCSN, trig, w)
		}
		e.env.Send(req)
	}
	return w
}

// HandleMessage dispatches one arriving message.
func (e *Engine) HandleMessage(m *protocol.Message) {
	switch m.Kind {
	case protocol.KindComputation:
		e.handleComputation(m)
	case protocol.KindRequest:
		e.handleRequest(m)
	case protocol.KindReply:
		if e.initiating && m.Trigger == e.ownTrigger {
			if e.repliers == nil {
				e.repliers = make(map[protocol.ProcessID]bool)
			}
			e.repliers[m.From] = true
			if !m.MR.IsZero() {
				e.recordParticipantDeps(m.From, m.MR.Flags())
			}
		}
		e.credit(m.Trigger, m.Weight)
	case protocol.KindCommit:
		if m.MR.Flag(e.id) {
			// Kim–Park partial commit: this process is in the
			// contaminated closure and must abort its contribution.
			e.handleAbort(m.Trigger)
			return
		}
		e.handleCommit(m.Trigger)
	case protocol.KindAbort:
		e.handleAbort(m.Trigger)
	default:
		// Unknown kinds are never routed here by the runtime.
	}
}

// handleComputation implements "actions at P_i on receiving a computation
// message from P_j" (§3.3.3).
func (e *Engine) handleComputation(m *protocol.Message) {
	j := m.From
	if e.env.Tracing() {
		e.env.Trace(trace.KindReceive, j, "csn=%d trigger=%v", m.CSN, m.Trigger)
	}
	if m.CSN <= e.csnOf(j) {
		e.r.Set(j)
		e.env.DeliverApp(m)
		return
	}
	if !m.Trigger.IsNone() && e.csnOf(m.Trigger.Pid) == m.Trigger.Inum {
		// Fast path: P_i already knows about this initiation (it has taken
		// a checkpoint for it or saw its commit), so m cannot be an orphan.
		e.setCSN(j, m.CSN)
		e.r.Set(j)
		e.env.DeliverApp(m)
		return
	}
	if !m.Trigger.IsNone() && e.aborted[m.Trigger] {
		// The instance the sender is still inside was already aborted; its
		// recovery line will never exist, so no checkpoint can orphan m.
		// Taking a mutable checkpoint here would leak (no commit or abort
		// will ever arrive again to discard it).
		e.setCSN(j, m.CSN)
		e.r.Set(j)
		e.env.DeliverApp(m)
		return
	}
	e.setCSN(j, m.CSN)

	if !m.Trigger.IsNone() && e.sent && m.Trigger != e.ownTrigger {
		if _, have := e.mutables[m.Trigger]; !have {
			// Conditions 1–3 of §3.3.3 hold: take a mutable checkpoint
			// before processing m.
			e.takeMutable(m.Trigger)
		}
	}
	if !m.Trigger.IsNone() && !e.cpState {
		e.cpState = true
		e.ownCSN++
		e.ownTrigger = m.Trigger
	}
	e.r.Set(j)
	e.env.DeliverApp(m)
}

// takeMutable captures the process state into cheap local storage.
func (e *Engine) takeMutable(trig protocol.Trigger) {
	st := e.env.CaptureState()
	st.CSN = e.ownCSN
	e.env.SaveMutable(st, trig)
	if e.env.Tracing() {
		e.env.Trace(trace.KindMutable, -1, "csn=%d trigger=%v", st.CSN, trig)
	}
	if e.mutables == nil {
		e.mutables = make(map[protocol.Trigger]*mutableCP)
	}
	e.mutables[trig] = &mutableCP{
		r:    e.r.Snapshot(),
		sent: e.sent,
	}
	e.sent = false
	e.resetR()
}

// handleRequest implements "actions at P_i on receiving a checkpoint
// request from P_j" (§3.3.2).
func (e *Engine) handleRequest(m *protocol.Message) {
	j := m.From
	e.setCSN(j, m.CSN)
	initiator := m.Trigger.Pid

	if e.aborted[m.Trigger] {
		// A propagated request that lost the race with the initiator's
		// abort broadcast (§3.6). The instance is dead: checkpointing for
		// it would leak a tentative forever, and the initiator no longer
		// accounts weight, so do nothing.
		return
	}
	if e.oldCSN > m.ReqCSN {
		// The send that created the dependency is already recorded in our
		// current tentative/permanent checkpoint (§3.1.3, Fig. 4).
		e.reply(initiator, m.Trigger, m.Weight, bitset.Snapshot{})
		return
	}
	e.cpState = true

	if cp, ok := e.mutables[m.Trigger]; ok {
		// Promote the mutable checkpoint to a tentative checkpoint and
		// propagate the request along its saved dependency vector.
		remaining := e.propCP(cp.r, m.MR, m.Trigger, m.Weight)
		e.env.PromoteMutable(m.Trigger)
		if e.env.Tracing() {
			e.env.Trace(trace.KindPromote, -1, "trigger=%v", m.Trigger)
		}
		delete(e.mutables, m.Trigger)
		if e.pending == nil {
			e.pending = make(map[protocol.Trigger]savedContext)
		}
		e.pending[m.Trigger] = savedContext{r: cp.r, sent: cp.sent, oldCSN: e.oldCSN, csnAt: e.ownCSN}
		e.oldCSN = e.ownCSN
		e.reply(initiator, m.Trigger, remaining, cp.r)
		return
	}
	if m.Trigger == e.ownTrigger {
		// Already took (or is taking) a checkpoint for this initiation.
		e.reply(initiator, m.Trigger, m.Weight, bitset.Snapshot{})
		return
	}

	// Inherit the request: take a tentative checkpoint.
	e.ownCSN++
	e.ownTrigger = m.Trigger
	deps := e.r.Snapshot()
	remaining := e.propCP(deps, m.MR, m.Trigger, m.Weight)
	e.takeTentative(m.Trigger)
	e.reply(initiator, m.Trigger, remaining, deps)
}

// reply sends the carried weight back to the initiator; when this process
// is itself the initiator the weight is credited directly. A present deps
// snapshot reports the dependency set of the checkpoint this process
// contributed, which the initiator needs for Kim–Park partial commit; the
// zero snapshot means no checkpoint was contributed.
func (e *Engine) reply(initiator protocol.ProcessID, trig protocol.Trigger, w dyadic.Weight, deps bitset.Snapshot) {
	if initiator == e.id {
		if !deps.IsZero() && e.initiating && trig == e.ownTrigger {
			e.recordParticipantDeps(e.id, deps)
		}
		e.credit(trig, w)
		return
	}
	if e.env.Tracing() {
		e.env.Trace(trace.KindReply, initiator, "w=%v", w)
	}
	out := protocol.NewMessage(e.env)
	*out = protocol.Message{
		Kind:    protocol.KindReply,
		From:    e.id,
		To:      initiator,
		Trigger: trig,
		Weight:  w,
		MR:      protocol.MRFlags(deps),
	}
	e.env.Send(out)
}

// credit implements the initiator's second phase (§3.3.4): accumulate
// returned weight and commit when it reaches exactly 1.
func (e *Engine) credit(trig protocol.Trigger, w dyadic.Weight) {
	if !e.initiating || trig != e.ownTrigger {
		// Stale reply for an instance that already terminated.
		return
	}
	e.weight.Add(w)
	e.maybeCommit()
}

func (e *Engine) maybeCommit() {
	if !e.initiating || !e.weight.IsOne() {
		return
	}
	trig := e.ownTrigger
	e.initiating = false
	e.weight.Reset()
	e.participantDeps = nil
	if e.opts.Dissemination == CommitTargeted {
		// §3.3.5 update approach: commit only to the processes that
		// replied; they forward along their notify sets.
		if e.env.Tracing() {
			e.env.Trace(trace.KindCommit, -1, "targeted trigger=%v to=%d repliers", trig, len(e.repliers))
		}
		// Ascending pid order keeps commit emission deterministic (map
		// iteration order is not), which replay and the fingerprint
		// equivalence oracle rely on.
		for _, p := range e.sortedPids(e.repliers) {
			out := protocol.NewMessage(e.env)
			*out = protocol.Message{
				Kind:    protocol.KindCommit,
				From:    e.id,
				To:      p,
				Trigger: trig,
			}
			e.env.Send(out)
		}
		e.repliers = nil
	} else {
		if e.env.Tracing() {
			e.env.Trace(trace.KindCommit, -1, "broadcast trigger=%v", trig)
		}
		out := protocol.NewMessage(e.env)
		*out = protocol.Message{
			Kind:    protocol.KindCommit,
			From:    e.id,
			Trigger: trig,
		}
		e.env.Broadcast(out)
	}
	e.handleCommit(trig)
	e.env.CheckpointingDone(trig, true)
}

// sortedPids collects a pid set's members in ascending order into
// targetScratch (valid until the next prop_cp or sortedPids call). The
// targeted-dissemination paths iterate O(participants log participants)
// this way instead of scanning all N pids.
func (e *Engine) sortedPids(set map[protocol.ProcessID]bool) []protocol.ProcessID {
	pids := e.targetScratch[:0]
	for p := range set {
		pids = append(pids, p)
	}
	sort.Ints(pids)
	e.targetScratch = pids
	return pids
}

// handleCommit implements "actions at other process P_j on receiving a
// broadcast message" (§3.3.4).
func (e *Engine) handleCommit(trig protocol.Trigger) {
	if e.opts.Dissemination == CommitTargeted && !e.seenCommits[trig] {
		if e.seenCommits == nil {
			e.seenCommits = make(map[protocol.Trigger]bool)
		}
		e.seenCommits[trig] = true
		if len(e.seenCommits) > 1024 {
			e.seenCommits = map[protocol.Trigger]bool{trig: true}
		}
		// Forward the commit to everyone we sent computation messages to
		// while inside the instance, so they clear cp_state and discard
		// mutable checkpoints (the update approach's notification duty),
		// in ascending pid order for deterministic emission.
		for _, p := range e.sortedPids(e.notifySet) {
			if p == trig.Pid {
				continue
			}
			out := protocol.NewMessage(e.env)
			*out = protocol.Message{
				Kind:    protocol.KindCommit,
				From:    e.id,
				To:      p,
				Trigger: trig,
			}
			e.env.Send(out)
		}
		e.notifySet = nil
	}
	e.setCSN(trig.Pid, trig.Inum)
	if trig == e.ownTrigger {
		// Only the committed instance's own participants leave cp_state.
		// A commit broadcast for a previous instance can still be in
		// flight when the next initiation starts; clearing cp_state
		// unconditionally here would strip the trigger off this process's
		// outgoing messages mid-instance, and receivers would then skip
		// the §3.3.3 forced checkpoint and orphan them.
		e.cpState = false
	}
	if cp, ok := e.mutables[trig]; ok {
		// Discard the mutable checkpoint: its interval merges back into
		// the current one, so restore the R and sent unions.
		e.sent = e.sent || cp.sent
		e.r.Or(cp.r)
		delete(e.mutables, trig)
		e.env.DiscardMutable(trig)
		if e.env.Tracing() {
			e.env.Trace(trace.KindDiscardMutable, -1, "trigger=%v", trig)
		}
	}
	if _, ok := e.pending[trig]; ok {
		e.env.MakePermanent(trig)
		if e.env.Tracing() {
			e.env.Trace(trace.KindPermanent, -1, "trigger=%v", trig)
		}
		delete(e.pending, trig)
	}
}

// AbortCurrent aborts the instance this process initiated (§3.6): the
// initiator broadcasts abort and every participant restores its state.
func (e *Engine) AbortCurrent() error {
	if !e.initiating {
		return fmt.Errorf("core: process %d is not an active initiator", e.id)
	}
	trig := e.ownTrigger
	e.initiating = false
	e.weight.Reset()
	e.participantDeps = nil
	if e.env.Tracing() {
		e.env.Trace(trace.KindAbort, -1, "broadcast trigger=%v", trig)
	}
	out := protocol.NewMessage(e.env)
	*out = protocol.Message{
		Kind:    protocol.KindAbort,
		From:    e.id,
		Trigger: trig,
	}
	e.env.Broadcast(out)
	e.handleAbort(trig)
	e.env.CheckpointingDone(trig, false)
	return nil
}

// handleAbort discards checkpoints taken for the aborted instance and
// restores the clobbered variables (§3.6). Only state belonging to trig is
// touched: with two overlapping initiations in flight, aborting one must
// not clobber the other's cp_state or oldCSN.
func (e *Engine) handleAbort(trig protocol.Trigger) {
	if e.aborted == nil {
		e.aborted = make(map[protocol.Trigger]bool)
	}
	e.aborted[trig] = true
	if len(e.aborted) > 1024 {
		e.aborted = map[protocol.Trigger]bool{trig: true}
	}
	if trig == e.ownTrigger {
		e.cpState = false
	}
	if cp, ok := e.mutables[trig]; ok {
		e.sent = e.sent || cp.sent
		e.r.Or(cp.r)
		delete(e.mutables, trig)
		e.env.DiscardMutable(trig)
		if e.env.Tracing() {
			e.env.Trace(trace.KindDiscardMutable, -1, "abort trigger=%v", trig)
		}
	}
	if saved, ok := e.pending[trig]; ok {
		e.env.DropTentative(trig)
		if e.env.Tracing() {
			e.env.Trace(trace.KindAbort, -1, "drop tentative trigger=%v", trig)
		}
		delete(e.pending, trig)
		// Restore the variables the tentative checkpoint reset.
		e.sent = e.sent || saved.sent
		e.r.Or(saved.r)
		if saved.csnAt == e.oldCSN {
			e.oldCSN = saved.oldCSN
		}
	}
}

// Weight exposes the initiator's accumulated termination-detection weight
// (tests and the model checker's Lemma 2 bound). It is the engine's own
// counter: read it, do not keep it across the engine's next event.
func (e *Engine) Weight() *dyadic.Sum { return &e.weight }

// Initiating reports whether this process is the active initiator.
func (e *Engine) Initiating() bool { return e.initiating }

// OldCSN exposes the csn of the current tentative/permanent checkpoint
// (tests).
func (e *Engine) OldCSN() int { return e.oldCSN }

// PendingTentatives reports how many tentative checkpoints await a
// commit/abort decision (tests).
func (e *Engine) PendingTentatives() int { return len(e.pending) }

// RestoreFromCheckpoint implements protocol.CheckpointRestorer: after a
// rollback the recovery executor rebuilds the engine fresh and aligns its
// numbering with the restored permanent checkpoint, so the resumed
// process's next initiation is csn+1 rather than a reused sequence
// number. Everything else (R, dependency state, pending instances) is
// correctly zero on a freshly built engine — the restored checkpoint is
// by definition the start of a new interval with no recorded traffic.
func (e *Engine) RestoreFromCheckpoint(csn int) {
	e.ownCSN = csn
	e.oldCSN = csn
	e.ownTrigger = protocol.Trigger{Pid: e.id, Inum: csn}
}

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
	seq  uint64 // capture order (Engine.captures)
	// deps is what a promotion propagates along: r widened by the
	// vectors of the mutables held when this one was taken (stableDeps).
	// It is r itself when none was held.
	deps bitset.Snapshot
	// csnAfter is csn_i[i] after the join that took this mutable: sends
	// before the capture carry less, sends after it at least this much.
	csnAfter int
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
	// seq orders the captured state among this process's checkpoints; a
	// promoted mutable keeps the seq of its capture.
	seq uint64
}

// Engine is the per-process state machine of the mutable-checkpoint
// algorithm. It is not safe for concurrent use; the runtime serializes all
// calls. For an instance it initiated, MakePermanent (DropTentative, when
// a later capture is permanent already) precedes every frame that
// announces the commit: the decision is logged before it is announced,
// and a driver runs the calls in the order they come.
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
	oldCSN     int              // old_csn_i
	ownTrigger protocol.Trigger // the instance this process initiated last

	// inside lists the instances this process has joined (by a tentative
	// or mutable checkpoint, or by adopting a computation message's
	// trigger) and has not yet seen decided, in the order joined. The
	// paper's cp_state_i is len(inside) > 0 and its trigger_i the last
	// entry. A process joins a second instance when that instance's
	// trigger reaches it before the first one's commit; its sends then
	// carry every entry (Message.Earlier), since the receivers of each
	// instance need the §3.3.3 forced checkpoint for it (DESIGN §4). The
	// slice is replaced, never written in place, so messages share it;
	// one entry lives in insideOne, which no message refers to (Earlier
	// is set only from two or more), so that the common case, one
	// instance at a time, allocates nothing (TestSim1kCountsPinned).
	inside    []protocol.Trigger
	insideOne [1]protocol.Trigger

	// decided holds, per initiator, the highest inum whose commit or
	// abort this process has handled. No request of a decided instance
	// is left in flight (its initiator decides once every request's
	// weight has come back), so a request for it is a late one of an
	// aborted instance, and a computation message carrying its trigger
	// cannot be an orphan for that instance: csn_i[pid] may have moved
	// past the inum since, and the paper's csn_i[pid] == inum test alone
	// would adopt the dead trigger and take a mutable nothing ever
	// discards. The sender may be inside a later instance as well; that
	// one travels in the same message's Earlier or Trigger.
	decided intvec.Vec
	// captures counts the states this process captured for tentative and
	// mutable checkpoints; permSeq is the capture behind its newest
	// permanent checkpoint. With the next instance begun before an
	// earlier commit arrives, a process can hold two tentatives and see
	// the newer commit first; the older one is then superseded.
	captures uint64
	permSeq  uint64

	// The bookkeeping maps below are nil until first written (reads of a
	// nil map are legal); at large N most processes never participate in
	// any instance and carry five nil words instead of five live maps.
	mutables map[protocol.Trigger]*mutableCP

	opts Options
	// repliers are the processes whose replies the initiator received
	// (targeted dissemination sends commits exactly there).
	repliers map[protocol.ProcessID]bool
	// notifySet are the peers this process sent computation messages to
	// while cp_state=1; the update approach forwards commits along it.
	notifySet map[protocol.ProcessID]bool

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
	// joinScratch collects the instances one computation message makes
	// this process join.
	joinScratch []protocol.Trigger
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
		decided:    intvec.New(n),
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
func (e *Engine) InProgress() bool { return len(e.inside) > 0 }

// Inside lists the instances this process is inside, in the order it
// joined them (tests). The slice is shared: do not modify it.
func (e *Engine) Inside() []protocol.Trigger { return e.inside }

// isInside reports whether this process has joined trig and not yet
// seen it decided.
func (e *Engine) isInside(trig protocol.Trigger) bool {
	for _, t := range e.inside {
		if t == trig {
			return true
		}
	}
	return false
}

// join adds trig to the instances this process is inside.
func (e *Engine) join(trig protocol.Trigger) {
	if len(e.inside) == 0 {
		e.insideOne[0] = trig
		e.inside = e.insideOne[:]
		return
	}
	in := make([]protocol.Trigger, len(e.inside), len(e.inside)+1)
	copy(in, e.inside)
	e.inside = append(in, trig)
}

// leave removes trig, decided, from the instances this process is inside.
func (e *Engine) leave(trig protocol.Trigger) {
	if !e.isInside(trig) {
		return
	}
	switch len(e.inside) {
	case 1:
		e.inside = nil
	case 2:
		e.insideOne[0] = e.inside[0]
		if e.inside[0] == trig {
			e.insideOne[0] = e.inside[1]
		}
		e.inside = e.insideOne[:]
	default:
		in := make([]protocol.Trigger, 0, len(e.inside)-1)
		for _, t := range e.inside {
			if t != trig {
				in = append(in, t)
			}
		}
		e.inside = in
	}
}

// knows reports whether trig needs nothing more of this process: it has
// joined the instance, seen it decided, or heard the initiator's csn
// for it (the paper's csn_i[pid] == inum).
func (e *Engine) knows(trig protocol.Trigger) bool {
	return e.csnOf(trig.Pid) == trig.Inum || e.decided.At(trig.Pid) >= trig.Inum || e.isInside(trig)
}

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
	m.Earlier = nil
	if n := len(e.inside); n > 0 {
		m.Trigger = e.inside[n-1]
		if n > 1 {
			m.Earlier = e.inside[:n-1]
		}
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
	if e.InProgress() {
		return ErrCheckpointInProgress
	}
	e.ownCSN++
	e.ownTrigger = protocol.Trigger{Pid: e.id, Inum: e.ownCSN}
	e.join(e.ownTrigger)
	e.initiating = true
	if e.env.Tracing() {
		e.env.Trace(trace.KindInitiate, -1, "trigger=%v", e.ownTrigger)
	}

	deps := e.stableDeps()
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
	e.captures++
	e.pending[trig] = savedContext{
		r:      e.r.Snapshot(),
		sent:   e.sent,
		oldCSN: e.oldCSN,
		csnAt:  e.ownCSN,
		seq:    e.captures,
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

// stableDeps is the dependency set of a tentative checkpoint taken now:
// R, widened by the vectors of the mutable checkpoints this process
// holds for other instances. Each mutable split R, but the tentative
// records the state after it, so it depends on the split-off intervals
// too and its request must reach their senders.
func (e *Engine) stableDeps() bitset.Snapshot {
	if len(e.mutables) == 0 {
		return e.r.Snapshot()
	}
	deps := e.r.Clone()
	for _, cp := range e.mutables {
		deps.Or(cp.r)
	}
	return deps.Snapshot()
}

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
// message from P_j" (§3.3.3), for every instance the sender is inside.
func (e *Engine) handleComputation(m *protocol.Message) {
	j := m.From
	if e.env.Tracing() {
		e.env.Trace(trace.KindReceive, j, "csn=%d trigger=%v", m.CSN, m.Trigger)
	}
	fresh := e.joinScratch[:0]
	if !m.Trigger.IsNone() {
		for _, t := range m.Earlier {
			if !e.knows(t) {
				fresh = append(fresh, t)
			}
		}
		if !e.knows(m.Trigger) {
			fresh = append(fresh, m.Trigger)
		}
	}
	e.joinScratch = fresh
	// The paper skips the triggers of a message whose csn it has seen
	// (csn_i[j] >= m.csn). One instance at a time, their instance is
	// known then; but a request for one instance raises csn_i[j] to a
	// csn the sender reached by joining another, so each trigger is
	// checked on its own.
	if m.CSN > e.csnOf(j) {
		e.setCSN(j, m.CSN)
	}
	if len(fresh) > 0 {
		// m was sent after its sender's checkpoint for each fresh
		// instance. Conditions 1–3 of §3.3.3 hold when this process has
		// sent since its last stable checkpoint: take a mutable
		// checkpoint for each before processing m. Either way it joins
		// them, and its csn moves so its next sends are told apart.
		if e.stableSent() {
			e.takeMutables(fresh)
		}
		e.ownCSN++
		for _, t := range fresh {
			if cp := e.mutables[t]; cp != nil {
				cp.csnAfter = e.ownCSN
			}
			e.join(t)
		}
	}
	e.r.Set(j)
	e.env.DeliverApp(m)
}

// noteDecided records that trig's instance is over here (decided).
func (e *Engine) noteDecided(trig protocol.Trigger) {
	if trig.Inum > e.decided.At(trig.Pid) {
		e.decided.Set(trig.Pid, trig.Inum)
	}
}

// stableSent reports whether this process has sent since its last
// stable checkpoint: in its current interval, or in one a mutable it
// holds split off.
func (e *Engine) stableSent() bool {
	if e.sent {
		return true
	}
	for _, cp := range e.mutables {
		if cp.sent {
			return true
		}
	}
	return false
}

// takeMutables captures the process state into cheap local storage, once
// for each trigger: one message can find the process outside two
// instances its sender is inside.
func (e *Engine) takeMutables(trigs []protocol.Trigger) {
	deps := e.stableDeps()
	r := deps
	if len(e.mutables) > 0 {
		r = e.r.Snapshot()
	}
	if e.mutables == nil {
		e.mutables = make(map[protocol.Trigger]*mutableCP)
	}
	e.captures++
	for _, trig := range trigs {
		st := e.env.CaptureState()
		st.CSN = e.ownCSN
		e.env.SaveMutable(st, trig)
		if e.env.Tracing() {
			e.env.Trace(trace.KindMutable, -1, "csn=%d trigger=%v", st.CSN, trig)
		}
		e.mutables[trig] = &mutableCP{r: r, sent: e.sent, seq: e.captures, deps: deps}
	}
	e.sent = false
	e.resetR()
}

// handleRequest implements "actions at P_i on receiving a checkpoint
// request from P_j" (§3.3.2).
func (e *Engine) handleRequest(m *protocol.Message) {
	j := m.From
	initiator := m.Trigger.Pid

	if e.decided.At(initiator) >= m.Trigger.Inum {
		// A propagated request that lost the race with the initiator's
		// abort broadcast (§3.6): no request of a committed instance is
		// left in flight. The instance is dead: checkpointing for it would
		// leak a tentative forever, and the initiator no longer accounts
		// weight, so do nothing.
		return
	}
	if e.oldCSN > m.ReqCSN {
		// The send that created the dependency is already recorded in our
		// current tentative/permanent checkpoint (§3.1.3, Fig. 4).
		e.reply(initiator, m.Trigger, m.Weight, bitset.Snapshot{})
		return
	}
	// csn_i[j] rises only once this process takes part. A declining
	// process that raised it would deliver the initiator's post-checkpoint
	// messages with no mutable checkpoint, and a later request for the
	// same instance would then checkpoint their receive (DESIGN §4).
	e.setCSN(j, m.CSN)

	if cp, ok := e.mutables[m.Trigger]; ok {
		// Promote the mutable checkpoint to a tentative checkpoint and
		// propagate the request along its saved dependency vector.
		remaining := e.propCP(cp.deps, m.MR, m.Trigger, m.Weight)
		e.env.PromoteMutable(m.Trigger)
		if e.env.Tracing() {
			e.env.Trace(trace.KindPromote, -1, "trigger=%v", m.Trigger)
		}
		delete(e.mutables, m.Trigger)
		if e.pending == nil {
			e.pending = make(map[protocol.Trigger]savedContext)
		}
		// Sends after the capture carry at least csnAfter; a later
		// tentative may have moved old_csn further already.
		csnAt := max(e.oldCSN, cp.csnAfter)
		e.pending[m.Trigger] = savedContext{r: cp.r, sent: cp.sent, oldCSN: e.oldCSN, csnAt: csnAt, seq: cp.seq}
		e.oldCSN = csnAt
		e.reply(initiator, m.Trigger, remaining, cp.deps)
		return
	}
	if e.isInside(m.Trigger) {
		// Already took (or is taking) a checkpoint for this initiation,
		// or adopted its trigger with nothing sent since its last stable
		// checkpoint.
		e.reply(initiator, m.Trigger, m.Weight, bitset.Snapshot{})
		return
	}

	// Inherit the request: take a tentative checkpoint.
	e.ownCSN++
	e.join(m.Trigger)
	deps := e.stableDeps()
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
		e.settle(trig)
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
		e.settle(trig)
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
	// A process stamps trig on its sends only while inside it, and leaves
	// it only on its commit or abort, so only a commit that finds it
	// inside owes a forward: a duplicate finds it outside, and a process
	// never inside trig made no one join it (DESIGN §4).
	if e.opts.Dissemination == CommitTargeted && e.isInside(trig) {
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
		if len(e.inside) == 1 {
			// The set also names receivers of messages stamped with the
			// other instances this process is inside; keep it for theirs.
			e.notifySet = nil
		}
	}
	if e.csnOf(trig.Pid) < trig.Inum {
		// Never back: the initiator itself, or a process that has heard
		// from it since, may be past the inum already.
		e.setCSN(trig.Pid, trig.Inum)
	}
	e.noteDecided(trig)
	// Only the committed instance leaves the ones this process is inside.
	// A commit broadcast for a previous instance can still be in flight
	// when the next initiation starts; clearing cp_state on it would strip
	// the later trigger off this process's outgoing messages mid-instance,
	// and receivers would then skip the §3.3.3 forced checkpoint.
	e.leave(trig)
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
	e.settle(trig)
}

// settle makes trig's pending tentative checkpoint, if any, permanent on
// its commit. An initiator settles its own before announcing the commit
// (DESIGN §9), so handleCommit then finds nothing left.
func (e *Engine) settle(trig protocol.Trigger) {
	if saved, ok := e.pending[trig]; ok {
		delete(e.pending, trig)
		if saved.seq < e.permSeq {
			// A later capture is permanent already: this one records
			// nothing that one does not, and committing it would move the
			// newest permanent back in time.
			e.env.DropTentative(trig)
			if e.env.Tracing() {
				e.env.Trace(trace.KindPermanent, -1, "trigger=%v superseded", trig)
			}
			return
		}
		e.permSeq = saved.seq
		e.env.MakePermanent(trig)
		if e.env.Tracing() {
			e.env.Trace(trace.KindPermanent, -1, "trigger=%v", trig)
		}
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
	e.noteDecided(trig)
	e.leave(trig)
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

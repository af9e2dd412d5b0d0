// Package protocol defines the message vocabulary and the engine/environment
// interfaces shared by every checkpointing algorithm in this repository.
//
// An algorithm is implemented as an Engine: a pure, single-threaded state
// machine that reacts to outgoing application sends, incoming messages, and
// checkpoint initiations. Engines never touch a clock, a network, or a
// goroutine directly — they call back into an Env, which is provided either
// by the discrete-event simulation runtime (internal/simrt) or by the
// cluster daemon (internal/daemon). This is what lets the exact same
// algorithm code run under virtual time for the paper's experiments and
// under real time in mcpd and the live API.
package protocol

import (
	"time"

	"mutablecp/internal/bitset"
	"mutablecp/internal/dyadic"
	"mutablecp/internal/intvec"
	"mutablecp/internal/trace"
)

// ProcessID identifies a process; processes are numbered 0..N-1.
type ProcessID = int

// Kind classifies a protocol message.
type Kind int

// Message kinds. Computation messages belong to the application; all others
// are system messages generated by the checkpointing algorithms.
const (
	KindComputation Kind = iota + 1
	KindRequest          // checkpoint request (first phase)
	KindReply            // reply carrying weight back to the initiator
	KindCommit           // second-phase commit
	KindAbort            // second-phase abort (failure handling, §3.6)
	KindMarker           // Chandy–Lamport marker
	KindDecision         // Koo–Toueg per-tree decision propagation
)

var kindNames = map[Kind]string{
	KindComputation: "computation",
	KindRequest:     "request",
	KindReply:       "reply",
	KindCommit:      "commit",
	KindAbort:       "abort",
	KindMarker:      "marker",
	KindDecision:    "decision",
}

// String returns the kind name.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return "kind?"
}

// IsSystem reports whether the kind is a checkpointing system message.
func (k Kind) IsSystem() bool { return k != KindComputation }

// Trigger identifies a checkpointing instance: the initiator and the csn the
// initiator assigned to its own checkpoint when it started the instance
// (the paper's (pid, inum) tuple).
type Trigger struct {
	Pid  ProcessID
	Inum int
}

// NoTrigger is the NULL trigger (no checkpointing in progress at sender).
var NoTrigger = Trigger{Pid: -1}

// IsNone reports whether t is the NULL trigger.
func (t Trigger) IsNone() bool { return t.Pid < 0 }

// MREntry is one slot of the MR structure appended to checkpoint requests:
// for each process, the largest csn any request already sent to it carried,
// and whether it is known to be in some sender's dependency set. It is the
// dense, comparable form of MRVec: tests build vectors from it and compare
// vectors through it. The wire format does not use it.
type MREntry struct {
	CSN int
	R   bool
}

// MRVec is the in-memory MR array: per-process csn values plus R flags
// held as a bitset snapshot. It is immutable and cheap to copy (a few
// words), so the requests of one prop_cp fan-out share a single
// underlying vector by reference instead of carrying N-entry clones each.
// The csn side is an adaptive intvec.Vec — a min-process instance touches
// O(participants) processes, so the vector costs O(participants)
// regardless of system size.
//
// The zero MRVec means "absent" (no MR piggybacked) — the engine
// distinguishes a reply that carried an empty dependency set from one
// that carried none at all. Flags-only vectors (replies, partial-commit
// exclusion masks) have a zero csn vector; CSN reads as 0 there, exactly
// as the []MREntry form encoded them.
type MRVec struct {
	csn  intvec.Vec
	bits bitset.Snapshot
}

// MRFlags wraps a dependency bitset as a flags-only MR vector (replies
// and partial-commit broadcasts). An absent snapshot yields an absent
// vector.
func MRFlags(bits bitset.Snapshot) MRVec { return MRVec{bits: bits} }

// MRFromEntries converts the dense form. A nil slice is the absent vector.
// The wire round-trip tests build their MR fixtures with it.
func MRFromEntries(entries []MREntry) MRVec {
	if entries == nil {
		return MRVec{}
	}
	b := NewMRBuilder(len(entries))
	for i, e := range entries {
		if e.R {
			b.SetFlag(i)
		}
		b.SetCSN(i, e.CSN)
	}
	return b.Freeze()
}

// IsZero reports absence (no MR piggybacked).
func (v MRVec) IsZero() bool { return v.bits.IsZero() }

// Len returns the vector length (0 when absent).
func (v MRVec) Len() int { return v.bits.Len() }

// CSN returns entry k's csn; 0 for flags-only or absent vectors and
// entries never set.
func (v MRVec) CSN(k int) int { return v.csn.At(k) }

// Flag reports entry k's R bit; false when absent or out of range.
func (v MRVec) Flag(k int) bool { return v.bits.Test(k) }

// Flags exposes the R bits as a bitset snapshot.
func (v MRVec) Flags() bitset.Snapshot { return v.bits }

// Entries renders the dense form ([]MREntry); nil when absent.
func (v MRVec) Entries() []MREntry {
	if v.IsZero() {
		return nil
	}
	out := make([]MREntry, v.Len())
	for i := range out {
		out[i] = MREntry{CSN: v.CSN(i), R: v.bits.Test(i)}
	}
	return out
}

// MRBuilder assembles MR vectors with O(present entries) work: prop_cp
// loads the received vector, folds in its targets, and freezes one shared
// MRVec for the whole fan-out. Builders may be reused across calls — the
// frozen vectors stay valid because Freeze hands the storage over
// copy-on-write (the next mutation after a Freeze copies fresh storage).
type MRBuilder struct {
	csn  intvec.Vec
	bits *bitset.Set
}

// NewMRBuilder returns a builder for vectors of n entries.
func NewMRBuilder(n int) *MRBuilder {
	return &MRBuilder{csn: intvec.New(n), bits: bitset.New(n)}
}

// Load initializes the builder from v (absent loads as all-zero). The csn
// side is shared until the builder next writes it.
func (b *MRBuilder) Load(v MRVec) {
	b.csn.Load(v.csn)
	b.bits.CopyFrom(v.Flags())
}

// CSN returns entry k's csn (0 when never set).
func (b *MRBuilder) CSN(k int) int { return b.csn.At(k) }

// Flag reports entry k's R bit.
func (b *MRBuilder) Flag(k int) bool { return b.bits.Test(k) }

// SetCSN sets entry k's csn.
func (b *MRBuilder) SetCSN(k, csn int) { b.csn.Set(k, csn) }

// SetFlag sets entry k's R bit.
func (b *MRBuilder) SetFlag(k int) { b.bits.Set(k) }

// Freeze returns the built vector. The builder remains usable; its
// storage is copied on the next mutation, never under the returned
// vector.
func (b *MRBuilder) Freeze() MRVec {
	return MRVec{csn: b.csn.Freeze(), bits: b.bits.Snapshot()}
}

// Message is the single wire format shared by all algorithms. Only the
// fields relevant to the Kind are populated; unused fields are zero. A fat
// struct keeps the simulated network and the live transport simple and
// avoids per-kind type switches on the hot path.
type Message struct {
	Kind Kind
	From ProcessID
	To   ProcessID // -1 for broadcast
	Seq  uint64    // per-(sender,kind=computation) sequence number, set by the runtime
	Size int       // bytes on the wire, set by the runtime cost model

	Payload []byte // application payload (computation messages)

	// Piggybacked/protocol fields (paper §3.2–§3.3).
	CSN     int           // computation: sender's csn_i[i]; request: sender's csn_i[i]
	Trigger Trigger       // msg_trigger; NoTrigger when absent
	ReqCSN  int           // request: csn the sender expects of the receiver (csn_i[k])
	MR      MRVec         // request: propagation-suppression structure
	Weight  dyadic.Weight // request/reply: termination-detection weight
	Commit  bool          // decision (Koo–Toueg): true=commit, false=abort
}

// State is the content of a checkpoint snapshot: cumulative per-peer
// computation-message counters captured at the checkpoint instant, plus the
// checkpoint's sequence number. The consistency checker (internal/
// consistency) evaluates orphan-freedom purely from these counters, so a
// State is exactly the evidence Theorem 1 needs.
//
// The counter vectors may be truncated: a process that only ever talked
// to peers 0..k stores k+1 entries, and every index past the end reads as
// 0 (use CounterAt). This keeps a checkpoint O(highest peer talked to)
// instead of O(N) — the min-process property, applied to state size. Nil
// and empty both mean "no traffic at all".
type State struct {
	Proc     ProcessID
	CSN      int
	SentTo   []uint64 // computation messages sent to each peer so far
	RecvFrom []uint64 // computation messages received from each peer so far
	At       time.Duration
}

// Clone returns a deep copy of the state.
func (s State) Clone() State {
	c := s
	c.SentTo = append([]uint64(nil), s.SentTo...)
	c.RecvFrom = append([]uint64(nil), s.RecvFrom...)
	return c
}

// CounterAt reads entry i of a possibly-truncated counter vector; indices
// past the stored length are 0.
func CounterAt(v []uint64, i int) uint64 {
	if i < 0 || i >= len(v) {
		return 0
	}
	return v[i]
}

// PadCounters returns v zero-extended to length n (v itself when already
// long enough). Rendering and wire boundaries use it so truncated
// checkpoints print and encode exactly as their dense equivalents.
func PadCounters(v []uint64, n int) []uint64 {
	if len(v) >= n {
		return v
	}
	out := make([]uint64, n)
	copy(out, v)
	return out
}

// Env is the world an engine runs in. All methods are synchronous from the
// engine's point of view; cost modelling (2-second checkpoint transfers,
// message latencies) is the runtime's responsibility.
type Env interface {
	// ID returns this process's identifier.
	ID() ProcessID
	// N returns the number of processes in the computation.
	N() int
	// Now returns the current (virtual or wall) time.
	Now() time.Duration

	// Send transmits m to m.To. The runtime assigns Seq and Size, and
	// owns m after the call: the engine must not read or reuse it.
	Send(m *Message)
	// Broadcast transmits m to every other process. As with Send, the
	// runtime owns m after the call.
	Broadcast(m *Message)

	// CaptureState snapshots the process state at this instant.
	CaptureState() State
	// SaveTentative writes a tentative checkpoint to stable storage (models
	// the 512 KB wireless transfer to the MSS).
	SaveTentative(s State, trig Trigger)
	// SaveMutable stores a mutable checkpoint locally (cheap: main memory).
	SaveMutable(s State, trig Trigger)
	// PromoteMutable transfers the stored mutable checkpoint for trig to
	// stable storage, turning it into a tentative checkpoint.
	PromoteMutable(trig Trigger)
	// DiscardMutable drops the stored mutable checkpoint for trig.
	DiscardMutable(trig Trigger)
	// MakePermanent commits the pending tentative checkpoint for trig.
	MakePermanent(trig Trigger)
	// DropTentative discards the pending tentative checkpoint for trig
	// (abort path).
	DropTentative(trig Trigger)

	// DeliverApp hands a computation message's payload to the application.
	DeliverApp(m *Message)
	// BlockApp suspends the underlying computation (blocking algorithms).
	BlockApp()
	// UnblockApp resumes it.
	UnblockApp()

	// CheckpointingDone tells the runtime a checkpointing instance this
	// process initiated has terminated (committed or aborted), so the
	// harness can measure the checkpointing time and schedule the next one.
	CheckpointingDone(trig Trigger, committed bool)

	// Trace records a structured event (no-op when tracing is disabled).
	Trace(kind trace.Kind, peer int, format string, args ...any)
	// Tracing reports whether Trace currently records anything. Engines
	// gate hot-path Trace calls on it so disabled tracing costs nothing
	// (the variadic call alone boxes its arguments onto the heap).
	Tracing() bool
}

// MessageSource is implemented by an Env that recycles message structs.
// NewMessage returns a zeroed struct for the engine to fill and hand to
// Send or Broadcast.
type MessageSource interface {
	NewMessage() *Message
}

// NewMessage returns a zeroed message struct for an outgoing system
// message: env's own when env is a MessageSource, a fresh one otherwise.
func NewMessage(env Env) *Message {
	if src, ok := env.(MessageSource); ok {
		return src.NewMessage()
	}
	return new(Message)
}

// Engine is a checkpointing algorithm instance bound to one process.
// Engines are driven entirely by their runtime and must not retain the
// *Message values they are handed beyond the call.
type Engine interface {
	// Name identifies the algorithm (for reports).
	Name() string
	// PrepareSend stamps an outgoing computation message with the
	// algorithm's piggyback fields and updates local bookkeeping (the
	// paper's "actions taken when P_i sends a computation message").
	PrepareSend(m *Message)
	// HandleMessage processes one arriving message of any kind.
	HandleMessage(m *Message)
	// Initiate starts a checkpointing instance at this process.
	Initiate() error
	// InProgress reports whether this process is inside a checkpointing
	// instance (the paper's cp_state).
	InProgress() bool
}

// Initiator is the initiator's side of a §3.6 instance: whether this
// process is still deciding an instance it initiated, which instance that
// is, and the abort. core.Engine implements it; the comparison engines
// need not.
type Initiator interface {
	Initiating() bool
	OwnTrigger() Trigger
	AbortCurrent() error
}

// CheckpointRestorer is implemented by engines that can resume from a
// committed checkpoint after a rollback: the recovery executor rebuilds
// the engine fresh and then aligns its checkpoint numbering with the
// restored state, so post-recovery instances do not reuse the sequence
// numbers of discarded ones. Engines without it restart numbering from
// zero, which is only safe when the whole cluster restarts cold.
type CheckpointRestorer interface {
	RestoreFromCheckpoint(csn int)
}

// Package checkpoint models the two classes of checkpoint storage the
// paper distinguishes: the stable store that lives at a mobile support
// station (reachable only over the wireless link, survives MH failure) and
// the volatile mutable store in an MH's local memory or disk (cheap to
// write, lost on MH failure, never required for recovery).
package checkpoint

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"mutablecp/internal/protocol"
)

// Status describes where a stored checkpoint is in its lifecycle.
type Status int

// Checkpoint lifecycle states.
const (
	StatusTentative Status = iota + 1
	StatusPermanent
	StatusMutable
)

// String returns the status name.
func (s Status) String() string {
	switch s {
	case StatusTentative:
		return "tentative"
	case StatusPermanent:
		return "permanent"
	case StatusMutable:
		return "mutable"
	default:
		return "status?"
	}
}

// Record is one stored checkpoint.
type Record struct {
	State   protocol.State
	Trigger protocol.Trigger
	Status  Status
	SavedAt time.Duration
}

// Errors returned by the stores.
var (
	ErrNoTentative      = errors.New("checkpoint: no tentative checkpoint pending")
	ErrTentativePending = errors.New("checkpoint: a tentative checkpoint is already pending")
	ErrNoMutable        = errors.New("checkpoint: no mutable checkpoint stored")
	ErrDuplicateMutable = errors.New("checkpoint: mutable checkpoint for trigger already stored")
)

// Store is the stable-storage lifecycle surface shared by the in-memory
// StableStore and the durable segment log in internal/stable: tentative
// write, promotion to permanent on commit and discard on abort. Each
// backend applies its own retention rule to superseded permanents. The
// simulation runtime (simrt) and the recovery executor speak only this
// interface, so a simulation can run against either backend.
//
// A store owns the State it is handed: it keeps the counter slices
// without copying them, so the caller must pass a fresh State (as
// protocol.Env.CaptureState returns) and never write to it again. Records
// read back share those slices and are read-only too.
type Store interface {
	// SaveTentative records a tentative checkpoint for trig. The store
	// takes ownership of s.
	SaveTentative(s protocol.State, trig protocol.Trigger, at time.Duration) error
	// Tentative returns the pending tentative checkpoint for trig, if any.
	Tentative(trig protocol.Trigger) (Record, bool)
	// TentativeTriggers lists pending triggers in (Pid, Inum) order.
	TentativeTriggers() []protocol.Trigger
	// MakePermanent commits the pending tentative checkpoint for trig.
	MakePermanent(trig protocol.Trigger, at time.Duration) error
	// DropTentative discards the pending tentative checkpoint for trig.
	DropTentative(trig protocol.Trigger) error
	// Permanent returns the most recent permanent checkpoint.
	Permanent() Record
	// History returns a copy of all retained permanents, oldest first.
	History() []Record
}

// StableStore holds one process's checkpoints on stable storage. In the
// paper's single-initiation regime a process keeps at most one permanent
// and one tentative checkpoint at a time; to support concurrent initiations
// (§3.5) tentative checkpoints are keyed by the trigger of their
// initiation. The store retains the permanent history up to its
// retention bound (see SetRetain); the run audit replays it.
type StableStore struct {
	proc      protocol.ProcessID
	permanent []Record
	tentative map[protocol.Trigger]*Record

	// retain bounds the permanent history: committing a new permanent
	// checkpoint garbage-collects superseded ones beyond the newest
	// retain (the paper's discard rule — once C_{p,k+1} is permanent,
	// C_{p,k} can never be needed again). 0 keeps everything, the audit
	// setting the experiment harnesses use to replay line history.
	retain int
}

var _ Store = (*StableStore)(nil)

// NewStableStore returns a store for the given process, seeded with an
// initial permanent checkpoint (sequence number 0, empty state): the paper
// numbers checkpoints from C_{p,0}, the pristine process state. The
// initial counters are empty truncated vectors (all-zero semantics, see
// protocol.State) so a million idle processes don't pay O(N) each here.
func NewStableStore(proc protocol.ProcessID) *StableStore {
	initial := Record{
		State:   protocol.State{Proc: proc, CSN: 0},
		Trigger: protocol.NoTrigger,
		Status:  StatusPermanent,
	}
	return &StableStore{
		proc:      proc,
		permanent: []Record{initial},
		tentative: make(map[protocol.Trigger]*Record),
	}
}

// RestoreStableStore rebuilds a store from a saved image: the retained
// permanent history (oldest first) and any pending tentatives. The
// durable store uses it to apply snapshot records at open. The store
// takes ownership of the records' states, as it does on SaveTentative.
func RestoreStableStore(proc protocol.ProcessID, perm, tent []Record) (*StableStore, error) {
	if len(perm) == 0 {
		return nil, fmt.Errorf("checkpoint: restore P%d with no permanent checkpoint", proc)
	}
	st := &StableStore{
		proc:      proc,
		permanent: make([]Record, 0, len(perm)),
		tentative: make(map[protocol.Trigger]*Record, len(tent)),
	}
	for _, r := range perm {
		if r.Status != StatusPermanent {
			return nil, fmt.Errorf("checkpoint: restore P%d: %v record in permanent history", proc, r.Status)
		}
		st.permanent = append(st.permanent, r)
	}
	for _, r := range tent {
		if r.Status != StatusTentative {
			return nil, fmt.Errorf("checkpoint: restore P%d: %v record in tentative set", proc, r.Status)
		}
		if _, ok := st.tentative[r.Trigger]; ok {
			return nil, fmt.Errorf("checkpoint: restore P%d: duplicate tentative for %+v", proc, r.Trigger)
		}
		st.tentative[r.Trigger] = &r
	}
	return st, nil
}

// SetRetain bounds the permanent history kept after each commit; see the
// retain field. k <= 0 keeps everything.
func (st *StableStore) SetRetain(k int) {
	if k < 0 {
		k = 0
	}
	st.retain = k
}

// SaveTentative records a tentative checkpoint for the given trigger and
// keeps s without copying it (see Store). At most one tentative
// checkpoint may be pending per trigger.
func (st *StableStore) SaveTentative(s protocol.State, trig protocol.Trigger, at time.Duration) error {
	if _, ok := st.tentative[trig]; ok {
		return ErrTentativePending
	}
	rec := Record{State: s, Trigger: trig, Status: StatusTentative, SavedAt: at}
	st.tentative[trig] = &rec
	return nil
}

// Tentative returns the pending tentative checkpoint for trig, if any.
func (st *StableStore) Tentative(trig protocol.Trigger) (Record, bool) {
	rec, ok := st.tentative[trig]
	if !ok {
		return Record{}, false
	}
	return *rec, true
}

// TentativeTriggers lists the triggers of all pending tentative
// checkpoints in deterministic (Pid, Inum) order. The chaos gauntlet uses
// it to attribute leaked tentatives to the instance that created them.
func (st *StableStore) TentativeTriggers() []protocol.Trigger {
	out := make([]protocol.Trigger, 0, len(st.tentative))
	for trig := range st.tentative {
		out = append(out, trig)
	}
	sortTriggers(out)
	return out
}

// MakePermanent commits the pending tentative checkpoint for trig.
func (st *StableStore) MakePermanent(trig protocol.Trigger, at time.Duration) error {
	rec, ok := st.tentative[trig]
	if !ok {
		return ErrNoTentative
	}
	committed := *rec
	committed.Status = StatusPermanent
	committed.SavedAt = at
	st.permanent = append(st.permanent, committed)
	delete(st.tentative, trig)
	if st.retain > 0 {
		// The paper's discard rule: the checkpoint this one supersedes is
		// dead the moment the commit lands, so long-running systems must
		// not accumulate it (this mirrors disk compaction in
		// internal/stable, which garbage-collects superseded permanents
		// from the segment log).
		st.gc(st.retain)
	}
	return nil
}

// DropTentative discards the pending tentative checkpoint for trig
// (abort path).
func (st *StableStore) DropTentative(trig protocol.Trigger) error {
	if _, ok := st.tentative[trig]; !ok {
		return ErrNoTentative
	}
	delete(st.tentative, trig)
	return nil
}

// Permanent returns the most recent permanent checkpoint.
func (st *StableStore) Permanent() Record {
	return st.permanent[len(st.permanent)-1]
}

// History returns a copy of all permanent checkpoints, oldest first.
func (st *StableStore) History() []Record {
	return append([]Record(nil), st.permanent...)
}

// gc discards all but the newest keep (>= 1) permanent checkpoints. The
// paper's coordinated approach needs only the latest consistent line, so
// keep=1 is the common setting.
func (st *StableStore) gc(keep int) {
	if dropped := len(st.permanent) - keep; dropped > 0 {
		st.permanent = append([]Record(nil), st.permanent[dropped:]...)
	}
}

// MutableStore holds a process's mutable checkpoints, keyed by the trigger
// of the initiation that caused them. The paper's Fig. 3 shows a process
// holding mutable checkpoints for two concurrent initiations (C1,1 and
// C1,2) at once, so the store is a map rather than a single slot.
type MutableStore struct {
	proc protocol.ProcessID
	recs map[protocol.Trigger]Record
}

// NewMutableStore returns an empty mutable store.
func NewMutableStore(proc protocol.ProcessID) *MutableStore {
	return &MutableStore{proc: proc, recs: make(map[protocol.Trigger]Record)}
}

// Save stores a mutable checkpoint for the given trigger and, like
// StableStore.SaveTentative, takes ownership of s.
func (ms *MutableStore) Save(s protocol.State, trig protocol.Trigger, at time.Duration) error {
	if _, ok := ms.recs[trig]; ok {
		return ErrDuplicateMutable
	}
	ms.recs[trig] = Record{State: s, Trigger: trig, Status: StatusMutable, SavedAt: at}
	return nil
}

// Take removes and returns the mutable checkpoint for trig.
func (ms *MutableStore) Take(trig protocol.Trigger) (Record, error) {
	rec, ok := ms.recs[trig]
	if !ok {
		return Record{}, fmt.Errorf("%w: trigger %+v", ErrNoMutable, trig)
	}
	delete(ms.recs, trig)
	return rec, nil
}

// Get returns the mutable checkpoint for trig without removing it.
func (ms *MutableStore) Get(trig protocol.Trigger) (Record, bool) {
	rec, ok := ms.recs[trig]
	return rec, ok
}

// Len returns the number of stored mutable checkpoints.
func (ms *MutableStore) Len() int { return len(ms.recs) }

// Triggers lists the triggers of all stored mutable checkpoints in
// deterministic (Pid, Inum) order.
func (ms *MutableStore) Triggers() []protocol.Trigger {
	out := make([]protocol.Trigger, 0, len(ms.recs))
	for trig := range ms.recs {
		out = append(out, trig)
	}
	sortTriggers(out)
	return out
}

func sortTriggers(ts []protocol.Trigger) {
	sort.Slice(ts, func(i, j int) bool {
		if ts[i].Pid != ts[j].Pid {
			return ts[i].Pid < ts[j].Pid
		}
		return ts[i].Inum < ts[j].Inum
	})
}

// Clear discards all mutable checkpoints (MH failure wipes them).
func (ms *MutableStore) Clear() { ms.recs = make(map[protocol.Trigger]Record) }

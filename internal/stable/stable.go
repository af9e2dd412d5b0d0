// Package stable is the durable backend for a mobile support station's
// checkpoint storage: an append-only, segment-based log that implements
// the same lifecycle semantics as the in-memory checkpoint.StableStore
// (tentative write → permanent promotion on commit, discard on abort)
// but survives an MSS crash. The paper's whole cost model rests on the
// MH/MSS storage split — cheap volatile mutable checkpoints at the
// mobile host versus stable storage at the station that recovery can
// always reach — and this package is where the "stable" half stops being
// simulated.
//
// Layout: one directory per process holding an internal/seglog segment
// log (seg-00000001.log, …). Every mutation appends one record
// (internal/wire.StableRecord); the commit point of every operation is
// the record itself becoming durable. The in-memory index is literally a
// checkpoint.StableStore, rebuilt at open by replaying the log from its
// newest snapshot-headed segment, so the two backends cannot drift
// apart. Compaction writes a snapshot record into a fresh segment and
// the log deletes the older segments, garbage-collecting superseded
// permanent checkpoints per the paper's discard rule; the outcomes of the
// process's own instances (Outcomes) outlive them in the snapshot. The
// write protocol, the fsync, poisoning and recovery are seglog's.
package stable

import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"mutablecp/internal/checkpoint"
	"mutablecp/internal/protocol"
	"mutablecp/internal/seglog"
	"mutablecp/internal/wire"
)

// The filesystem seam, the fsync discipline and the disk counters are
// the log's, under the names callers and errfs have always used.
type (
	FS         = seglog.FS
	File       = seglog.File
	Reader     = seglog.Reader
	SyncPolicy = seglog.SyncPolicy
	Metrics    = seglog.Metrics
)

// The fsync disciplines; see seglog.
const (
	SyncOnCommit = seglog.SyncOnCommit
	SyncNever    = seglog.SyncNever
)

// OS returns the real-disk filesystem.
func OS() FS { return seglog.OS() }

// Options configures a store. The zero value is real disk, fsync on
// commit, and the audit setting for history: every permanent checkpoint
// is kept and the log is never compacted, so it grows with every record.
// A long-running process sets Keep (internal/daemon: Keep 1,
// CompactEvery 64).
type Options struct {
	// FS, Sync and SegmentBytes (default 4 MiB) are the log's options.
	FS           FS
	Sync         SyncPolicy
	SegmentBytes int64
	// Keep is how many permanent checkpoints compaction retains; 0 means
	// keep everything and never auto-compact (the audit setting — the
	// experiment harnesses replay full line history). The common setting
	// is 1: the paper's coordinated scheme only ever needs the newest
	// consistent line.
	Keep int
	// CompactEvery is how many commits accumulate between automatic
	// compactions when Keep > 0 (default 1: compact on every commit,
	// exactly the discard rule).
	CompactEvery int
}

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("stable: store is closed")

// Outcomes is what a store knows about the instances its own process
// initiated (trigger Pid == the store's process): the highest inum it has
// decided, committed or dropped, and the dropped ones, ascending. Only
// the initiator decides an instance (§3.6), so this is every answer
// in-doubt resolution asks of it, and it survives the discard rule where
// the permanent history does not: replay derives it from the commit and
// drop records, and compaction carries it in the snapshot.
type Outcomes struct {
	Decided int
	Aborted []int
}

// Committed reports whether own instance inum committed: it was decided
// and not dropped. Any other inum aborted or was never durably started.
func (o Outcomes) Committed(inum int) bool {
	if inum > o.Decided {
		return false
	}
	i := sort.SearchInts(o.Aborted, inum)
	return i == len(o.Aborted) || o.Aborted[i] != inum
}

// record notes the decision on own instance inum.
func (o *Outcomes) record(inum int, committed bool) {
	o.Decided = max(o.Decided, inum)
	if committed {
		return
	}
	if i := sort.SearchInts(o.Aborted, inum); i == len(o.Aborted) || o.Aborted[i] != inum {
		o.Aborted = slices.Insert(o.Aborted, i, inum)
	}
}

// Store is one process's durable checkpoint log. It implements
// checkpoint.Store and is safe for concurrent use: index mutations, their
// appends and their fsyncs serialize under mu, in the same order.
type Store struct {
	proc protocol.ProcessID
	opts Options
	log  *seglog.Log

	mu sync.Mutex

	// mem is the authoritative in-memory index, rebuilt from the log at
	// open. Reusing checkpoint.StableStore guarantees the durable backend
	// answers every query exactly as the memory backend would.
	mem *checkpoint.StableStore
	// outcomes summarises the own instances decided in the log.
	outcomes Outcomes

	// sinceCompact counts commits the newest boundary does not cover,
	// replayed ones included.
	sinceCompact int
	closed       bool
}

var _ checkpoint.Store = (*Store)(nil)

// ProcDir returns the per-process store directory under an MSS root.
func ProcDir(root string, proc protocol.ProcessID) string {
	return filepath.Join(root, fmt.Sprintf("p%03d", proc))
}

// Open opens (or creates) the durable store for one process of an
// n-process system in dir. A fresh directory gets a first segment holding
// a snapshot of the pristine state (the paper's C_{p,0}); an existing one
// is recovered by seglog.Open, which replays it into the index.
func Open(dir string, proc protocol.ProcessID, n int, opts Options) (*Store, error) {
	if opts.CompactEvery == 0 {
		opts.CompactEvery = 1
	}
	s := &Store{proc: proc, opts: opts}
	s.mem = checkpoint.NewStableStore(proc)
	s.mem.SetRetain(opts.Keep)
	log, err := seglog.Open(dir, "seg",
		seglog.Options{FS: opts.FS, Sync: opts.Sync, SegmentBytes: opts.SegmentBytes},
		seglog.Client{Head: head, Apply: s.apply, Boundary: s.snapshotFrame})
	if err != nil {
		return nil, fmt.Errorf("stable: open %s: %w", dir, err)
	}
	s.log = log
	return s, nil
}

// head is the log's boundary test: a segment that opens with a snapshot
// record is one replay can start from, because the snapshot is the whole
// state and everything before it is superseded by construction.
func head(seq uint64, body []byte) (uint64, bool, error) {
	rec, err := wire.ParseStableRecord(body)
	if errors.Is(err, wire.ErrFormatVersion) {
		return 0, false, err
	}
	return seq, err == nil && rec.Op == wire.OpSnapshot, nil
}

// apply folds one replayed record into the index.
func (s *Store) apply(_ string, _ int64, body []byte) error {
	rec, err := wire.ParseStableRecord(body)
	if err != nil {
		return err
	}
	if rec.Proc != s.proc {
		return fmt.Errorf("record for P%d in P%d's log", rec.Proc, s.proc)
	}
	switch rec.Op {
	case wire.OpSnapshot:
		perm, err := imagesToRecords(rec.Permanent)
		if err != nil {
			return err
		}
		tent, err := imagesToRecords(rec.Tentative)
		if err != nil {
			return err
		}
		mem, err := checkpoint.RestoreStableStore(s.proc, perm, tent)
		if err != nil {
			return err
		}
		mem.SetRetain(s.opts.Keep)
		s.mem = mem
		// Outcomes only accumulate, so a snapshot's are merged in: a
		// version-1 snapshot carries none and keeps what replay derived.
		s.outcomes.Decided = max(s.outcomes.Decided, rec.Decided)
		for _, inum := range rec.Aborted {
			s.outcomes.record(inum, false)
		}
		return nil
	case wire.OpTentative:
		return s.mem.SaveTentative(rec.State, rec.Trigger, rec.At)
	case wire.OpCommit:
		// Replay starts at the newest boundary, so no replayed commit is
		// covered by it: the cadence resumes where the last process left
		// it, and a process restarted more often than every CompactEvery
		// commits still compacts.
		s.sinceCompact++
		return s.decided(rec.Trigger, true, s.mem.MakePermanent(rec.Trigger, rec.At))
	case wire.OpDrop:
		return s.decided(rec.Trigger, false, s.mem.DropTentative(rec.Trigger))
	default:
		return fmt.Errorf("unknown op %d", rec.Op)
	}
}

// decided records a successful commit or drop of trig in the outcomes
// when trig is one of this process's own instances, and passes err on.
func (s *Store) decided(trig protocol.Trigger, committed bool, err error) error {
	if err == nil && trig.Pid == s.proc {
		s.outcomes.record(trig.Inum, committed)
	}
	return err
}

// Broken returns the error that poisoned the store, if any.
func (s *Store) Broken() error { return s.log.Broken() }

func (s *Store) usable() error {
	if s.closed {
		return ErrClosed
	}
	return s.log.Broken()
}

// appendLocked frames rec and appends it, with mu held.
func (s *Store) appendLocked(rec *wire.StableRecord) error {
	frame, err := wire.AppendStableRecord(nil, rec)
	if err != nil {
		return err
	}
	_, err = s.log.Append(frame)
	return err
}

func recordsToImages(recs []checkpoint.Record) []wire.CheckpointImage {
	out := make([]wire.CheckpointImage, len(recs))
	for i, r := range recs {
		out[i] = wire.CheckpointImage{
			State:   r.State,
			Trigger: r.Trigger,
			Status:  uint8(r.Status),
			SavedAt: r.SavedAt,
		}
	}
	return out
}

func imagesToRecords(imgs []wire.CheckpointImage) ([]checkpoint.Record, error) {
	out := make([]checkpoint.Record, len(imgs))
	for i, img := range imgs {
		st := checkpoint.Status(img.Status)
		if st != checkpoint.StatusTentative && st != checkpoint.StatusPermanent {
			return nil, fmt.Errorf("snapshot image with status %d", img.Status)
		}
		out[i] = checkpoint.Record{
			State:   img.State,
			Trigger: img.Trigger,
			Status:  st,
			SavedAt: img.SavedAt,
		}
	}
	return out, nil
}

// snapshotRecord captures the full store image: retained permanents plus
// pending tentatives, in deterministic order.
func (s *Store) snapshotRecord() *wire.StableRecord {
	rec := &wire.StableRecord{
		Op:        wire.OpSnapshot,
		Proc:      s.proc,
		Permanent: recordsToImages(s.mem.History()),
		Decided:   s.outcomes.Decided,
		Aborted:   s.outcomes.Aborted,
	}
	for _, trig := range s.mem.TentativeTriggers() {
		t, _ := s.mem.Tentative(trig)
		rec.Tentative = append(rec.Tentative, recordsToImages([]checkpoint.Record{t})...)
	}
	return rec
}

// snapshotFrame is the log's boundary frame: the snapshot names no
// segment because it is itself everything replay needs.
func (s *Store) snapshotFrame(uint64) ([]byte, error) {
	return wire.AppendStableRecord(nil, s.snapshotRecord())
}

// do runs one logged mutation under mu. step vets the operation against
// the index, appends the record and applies it, so the index never
// disagrees with the log about operation order; a commit-grade record
// (commit) is then made durable by one Log.Sync.
func (s *Store) do(commit bool, step func() error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usable(); err != nil {
		return err
	}
	if err := step(); err != nil || !commit {
		return err
	}
	return s.log.Sync()
}

// --- checkpoint.Store implementation ---

// SaveTentative implements checkpoint.Store. The record is appended but
// not fsynced: the later commit's fsync covers it, because a file's
// writes become durable in order.
func (s *Store) SaveTentative(st protocol.State, trig protocol.Trigger, at time.Duration) error {
	return s.do(false, func() error {
		if _, ok := s.mem.Tentative(trig); ok {
			return checkpoint.ErrTentativePending
		}
		if err := s.appendLocked(&wire.StableRecord{
			Op: wire.OpTentative, Proc: s.proc, Trigger: trig, At: at, State: st,
		}); err != nil {
			return err
		}
		return s.mem.SaveTentative(st, trig, at)
	})
}

// Tentative implements checkpoint.Store.
func (s *Store) Tentative(trig protocol.Trigger) (checkpoint.Record, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mem.Tentative(trig)
}

// TentativeTriggers implements checkpoint.Store.
func (s *Store) TentativeTriggers() []protocol.Trigger {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mem.TentativeTriggers()
}

// MakePermanent implements checkpoint.Store: the durable commit marker.
// Once this returns nil under SyncOnCommit, the checkpoint survives any
// crash. A compaction covers every commit applied to the index before
// it, so commits that land between two cadence points share one.
func (s *Store) MakePermanent(trig protocol.Trigger, at time.Duration) error {
	err := s.do(true, func() error {
		if _, ok := s.mem.Tentative(trig); !ok {
			return checkpoint.ErrNoTentative
		}
		if err := s.appendLocked(&wire.StableRecord{
			Op: wire.OpCommit, Proc: s.proc, Trigger: trig, At: at,
		}); err != nil {
			return err
		}
		s.sinceCompact++
		return s.decided(trig, true, s.mem.MakePermanent(trig, at))
	})
	if err != nil || s.opts.Keep == 0 {
		return err
	}
	// The discard rule on disk: superseded permanents leave the log.
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sinceCompact < s.opts.CompactEvery {
		return nil
	}
	return s.compactLocked()
}

// DropTentative implements checkpoint.Store (the abort path). The drop
// marker is commit-grade: once acknowledged, the tentative cannot
// resurface at reopen.
func (s *Store) DropTentative(trig protocol.Trigger) error {
	return s.do(true, func() error {
		if _, ok := s.mem.Tentative(trig); !ok {
			return checkpoint.ErrNoTentative
		}
		if err := s.appendLocked(&wire.StableRecord{
			Op: wire.OpDrop, Proc: s.proc, Trigger: trig,
		}); err != nil {
			return err
		}
		return s.decided(trig, false, s.mem.DropTentative(trig))
	})
}

// Outcomes returns the summary of this process's own instances. It
// reflects every commit and drop applied so far, durable or not: a caller
// that answers for the disk waits for the pending ones first.
func (s *Store) Outcomes() Outcomes {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Outcomes{Decided: s.outcomes.Decided, Aborted: slices.Clone(s.outcomes.Aborted)}
}

// Permanent implements checkpoint.Store.
func (s *Store) Permanent() checkpoint.Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mem.Permanent()
}

// History implements checkpoint.Store.
func (s *Store) History() []checkpoint.Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mem.History()
}

// Compact writes the current image as a snapshot record into a fresh
// segment, durably, then deletes the older segments (seglog.Compact with
// no rewrite phase: the snapshot is the whole live state).
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compactLocked()
}

// compactLocked runs one compaction with mu held throughout, which keeps
// every other appender out so that the fresh segment's first record is
// the snapshot.
func (s *Store) compactLocked() error {
	if err := s.usable(); err != nil {
		return err
	}
	if err := s.log.Compact(nil); err != nil {
		return err
	}
	s.sinceCompact = 0
	return nil
}

// Close flushes and closes the log. The store is unusable afterwards;
// reopen with Open. An operation in flight finishes first.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.closed = true
	return s.log.Close()
}

// Segments returns the live segment paths, oldest first.
func (s *Store) Segments() []string { return s.log.Segments() }

// Metrics returns the disk-activity counters.
func (s *Store) Metrics() Metrics { return s.log.Metrics() }

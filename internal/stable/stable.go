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
// Layout: one directory per process holding numbered segment files
// (seg-00000001.log, …). Every mutation appends one length-prefixed,
// CRC32C-checksummed record (internal/wire.StableRecord); the commit
// point of every operation is the record itself becoming durable, so no
// rename tricks are needed. Open replays the segments oldest-first,
// truncates a torn tail off the last segment (the only place a crash can
// leave one), and rebuilds the in-memory index — which is literally a
// checkpoint.StableStore, so the two backends cannot drift apart.
// Compaction writes a snapshot record into a fresh segment and deletes
// the older segments, garbage-collecting superseded permanent
// checkpoints per the paper's discard rule.
package stable

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"mutablecp/internal/checkpoint"
	"mutablecp/internal/protocol"
	"mutablecp/internal/wire"
)

// SyncPolicy selects the fsync discipline.
type SyncPolicy int

const (
	// SyncOnCommit fsyncs at the operations that acknowledge durability
	// to the protocol — commit, drop, seed, and compaction — letting
	// tentative appends ride the same later fsync (file writes are
	// ordered, so a durable commit record implies a durable tentative
	// before it). The default.
	SyncOnCommit SyncPolicy = iota
	// SyncAlways fsyncs after every append.
	SyncAlways
	// SyncNever never fsyncs: fastest, and an acknowledged commit may
	// vanish in a crash — the store still reopens consistently, it just
	// resumes from an earlier prefix of the log.
	SyncNever
)

// String returns the policy name.
func (p SyncPolicy) String() string {
	switch p {
	case SyncOnCommit:
		return "commit"
	case SyncAlways:
		return "always"
	case SyncNever:
		return "never"
	default:
		return "sync?"
	}
}

// Options configures a store. The zero value is the production setting:
// real disk, fsync on commit, keep one permanent checkpoint.
type Options struct {
	// FS is the filesystem; nil means the real disk.
	FS FS
	// Sync is the fsync discipline.
	Sync SyncPolicy
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
	// SegmentBytes rolls the active segment past this size (default
	// 4 MiB) so unbounded histories don't grow one unbounded file.
	SegmentBytes int64
}

func (o Options) defaults() Options {
	if o.FS == nil {
		o.FS = OS()
	}
	if o.CompactEvery == 0 {
		o.CompactEvery = 1
	}
	if o.SegmentBytes == 0 {
		o.SegmentBytes = 4 << 20
	}
	return o
}

// Metrics counts the store's disk activity since open.
type Metrics struct {
	Appends       uint64
	AppendedBytes uint64
	Syncs         uint64
	Compactions   uint64
	// ReplayedRecords and TruncatedBytes describe the last Open: how many
	// records were recovered and how many torn tail bytes were cut.
	ReplayedRecords uint64
	TruncatedBytes  int64
}

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("stable: store is closed")

// Store is one process's durable checkpoint log. It implements
// checkpoint.Store and is safe for concurrent use: appends serialize
// under one lock, and durable appends group-commit — concurrent
// committers share a single fsync through a coalescing sync ticket.
//
// The ticket protocol: every append is stamped with a monotonically
// increasing write generation; a durable append blocks until the
// durable watermark reaches its generation. At most one caller at a
// time is the flusher — it captures the current write generation as its
// target, fsyncs the active segment with the lock released (so new
// appends keep flowing into the next batch), then advances the
// watermark to the target and wakes every ticket at or below it. A
// file's writes become durable in order, so one fsync acknowledges the
// whole batch; the acked-commit-never-lost guarantee is exactly the
// serial one.
type Store struct {
	dir  string
	proc protocol.ProcessID
	n    int
	opts Options
	fs   FS

	mu   sync.Mutex
	cond *sync.Cond // watermark advanced, flush/compaction finished, poisoned

	// mem is the authoritative in-memory index, rebuilt from the log at
	// open. Reusing checkpoint.StableStore guarantees the durable backend
	// answers every query exactly as the memory backend would. Index
	// mutations happen in append order under mu, so the index never
	// disagrees with the log about operation order.
	mem *checkpoint.StableStore

	active     File
	activeName string
	activeSize int64
	segs       []string // live segment paths, oldest first (incl. active)
	nextSeq    uint64

	writeGen   uint64 // generation of the newest append
	durableGen uint64 // every append <= this generation is fsynced
	flushing   bool   // a flusher is mid-fsync with mu released
	compacting bool   // a compaction is in flight; new appends gate on it

	sinceCompact int
	broken       error
	closed       bool

	metrics Metrics
}

var _ checkpoint.Store = (*Store)(nil)

// ProcDir returns the per-process store directory under an MSS root.
func ProcDir(root string, proc protocol.ProcessID) string {
	return filepath.Join(root, fmt.Sprintf("p%03d", proc))
}

func segName(seq uint64) string { return fmt.Sprintf("seg-%08d.log", seq) }

func segSeq(name string) (uint64, bool) {
	var seq uint64
	if _, err := fmt.Sscanf(name, "seg-%08d.log", &seq); err != nil {
		return 0, false
	}
	return seq, true
}

// Open opens (or creates) the durable store for one process of an
// n-process system in dir. On an existing directory it runs recovery:
// replay all segments, truncate the torn tail, rebuild the index.
func Open(dir string, proc protocol.ProcessID, n int, opts Options) (*Store, error) {
	opts = opts.defaults()
	s := &Store{dir: dir, proc: proc, n: n, opts: opts, fs: opts.FS, nextSeq: 1}
	s.cond = sync.NewCond(&s.mu)
	if err := s.fs.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("stable: mkdir %s: %w", dir, err)
	}
	names, err := s.fs.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("stable: list %s: %w", dir, err)
	}
	for _, name := range names {
		if seq, ok := segSeq(name); ok {
			s.segs = append(s.segs, filepath.Join(dir, name))
			if seq >= s.nextSeq {
				s.nextSeq = seq + 1
			}
		}
	}
	// The internal append/roll paths assume mu is held (the durability
	// wait releases it around fsync), so open runs under the lock too.
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.segs) == 0 {
		return s.create()
	}
	return s.recover()
}

// create initializes a fresh store: a first segment holding a snapshot of
// the pristine state (the paper's C_{p,0}).
func (s *Store) create() (*Store, error) {
	s.mem = checkpoint.NewStableStore(s.proc, s.n)
	s.mem.SetRetain(s.opts.Keep)
	if err := s.rollLocked(); err != nil {
		return nil, err
	}
	gen, err := s.appendLocked(s.snapshotRecord())
	if err == nil {
		err = s.waitDurableLocked(gen, true)
	}
	if err != nil {
		return nil, fmt.Errorf("stable: init %s: %w", s.dir, err)
	}
	return s, nil
}

// recover replays the segment chain and reopens the last segment for
// appending. A torn or corrupt record in the last segment is a crash
// artifact: everything from it on is truncated away. The same damage in
// any earlier segment has no innocent explanation and fails the open, as
// does an intact record of another format version anywhere: that is
// another build's log, and truncating it would restart the process at
// csn 0 over data that is still good.
//
// Replay starts at the newest segment that begins with a valid snapshot
// record, not at the oldest file present: a crash during compaction can
// leave any subset of the superseded segments behind (a real disk
// persists unlinks independently), and replaying a gappy prefix would
// corrupt the index. Everything before the snapshot is superseded by
// construction.
func (s *Store) recover() (*Store, error) {
	s.mem = checkpoint.NewStableStore(s.proc, s.n)
	s.mem.SetRetain(s.opts.Keep)
	start := 0
	for i := len(s.segs) - 1; i > 0; i-- {
		if s.startsWithSnapshot(s.segs[i]) {
			start = i
			break
		}
	}
	replay := s.segs[start:]
	last := len(replay) - 1
	for i, path := range replay {
		valid, err := s.replaySegment(path)
		if err == nil {
			continue
		}
		if errors.Is(err, wire.ErrFormatVersion) {
			return nil, fmt.Errorf("stable: %s: %w", path, err)
		}
		if !errors.Is(err, wire.ErrTornRecord) && !errors.Is(err, wire.ErrCorruptRecord) {
			return nil, err
		}
		if i != last {
			return nil, fmt.Errorf("stable: %s: mid-log damage: %w", path, err)
		}
		if terr := s.fs.Truncate(path, valid); terr != nil {
			return nil, fmt.Errorf("stable: truncate torn tail of %s: %w", path, terr)
		}
	}
	s.activeName = s.segs[len(s.segs)-1]
	f, err := s.fs.OpenAppend(s.activeName)
	if err != nil {
		return nil, fmt.Errorf("stable: reopen %s: %w", s.activeName, err)
	}
	s.active = f
	return s, nil
}

// startsWithSnapshot reports whether the segment's first record is a
// valid snapshot (a compaction point replay can start from).
func (s *Store) startsWithSnapshot(path string) bool {
	f, err := s.fs.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	rec, _, err := wire.DecodeStableRecord(f)
	return err == nil && rec.Op == wire.OpSnapshot
}

// replaySegment applies one segment's records to the index. It returns
// the byte offset of the end of the last valid record; the error, if
// any, wraps ErrTornRecord/ErrCorruptRecord for tail damage or reports a
// semantic replay failure.
func (s *Store) replaySegment(path string) (int64, error) {
	f, err := s.fs.Open(path)
	if err != nil {
		return 0, fmt.Errorf("stable: open %s: %w", path, err)
	}
	defer f.Close()
	var valid int64
	for {
		rec, n, err := wire.DecodeStableRecord(f)
		if err == io.EOF {
			s.activeSize = valid
			return valid, nil
		}
		if err != nil {
			s.activeSize = valid
			s.metrics.TruncatedBytes += int64(n)
			return valid, err
		}
		if err := s.apply(rec); err != nil {
			return valid, fmt.Errorf("stable: %s at offset %d: %w", path, valid, err)
		}
		valid += int64(n)
		s.metrics.ReplayedRecords++
	}
}

// apply folds one replayed record into the index.
func (s *Store) apply(rec *wire.StableRecord) error {
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
		return nil
	case wire.OpTentative:
		return s.mem.SaveTentative(rec.State, rec.Trigger, rec.At)
	case wire.OpCommit:
		return s.mem.MakePermanent(rec.Trigger, rec.At)
	case wire.OpDrop:
		return s.mem.DropTentative(rec.Trigger)
	default:
		return fmt.Errorf("unknown op %d", rec.Op)
	}
}

// rollLocked closes the active segment and starts the next one, with mu
// held. Any in-flight flusher on the old file finishes first, and the
// old file is fsynced before close (per policy) so a crash cannot tear a
// mid-log segment; the sync also advances the durable watermark, waking
// every ticket pending on the old segment. Directory durability: the
// new name is fsynced (per policy) so a crash cannot forget a segment
// whose records were already acknowledged.
func (s *Store) rollLocked() error {
	if s.active != nil {
		for s.flushing {
			s.cond.Wait()
		}
		if err := s.usable(); err != nil {
			return err
		}
		// durableGen == writeGen means every byte in the active file is
		// already fsynced (a group flush just drained the batch), so the
		// pre-close sync would be a no-op — skip it.
		if s.opts.Sync != SyncNever && s.durableGen != s.writeGen {
			if err := s.active.Sync(); err != nil {
				return s.poisonLocked(fmt.Errorf("stable: fsync %s: %w", s.activeName, err))
			}
			s.metrics.Syncs++
			// mu has been held since the wait above, so writeGen is exactly
			// the newest byte in the file we just synced.
			s.durableGen = s.writeGen
			s.cond.Broadcast()
		}
		if err := s.active.Close(); err != nil {
			return s.poisonLocked(fmt.Errorf("stable: close %s: %w", s.activeName, err))
		}
		s.active = nil
	}
	name := filepath.Join(s.dir, segName(s.nextSeq))
	f, err := s.fs.Create(name)
	if err != nil {
		return s.poisonLocked(fmt.Errorf("stable: create %s: %w", name, err))
	}
	s.nextSeq++
	s.active = f
	s.activeName = name
	s.activeSize = 0
	s.segs = append(s.segs, name)
	if s.opts.Sync != SyncNever {
		if err := s.fs.SyncDir(s.dir); err != nil {
			return s.poisonLocked(fmt.Errorf("stable: sync dir %s: %w", s.dir, err))
		}
		s.metrics.Syncs++
	}
	return nil
}

// poisonLocked marks the store broken after an I/O failure: whatever the
// disk did or did not persist, the only trustworthy copy of the state is
// the one a fresh Open will rebuild. Every later mutation fails fast,
// and every blocked ticket wakes to the error.
func (s *Store) poisonLocked(err error) error {
	if s.broken == nil {
		s.broken = err
	}
	s.cond.Broadcast()
	return err
}

// Broken returns the error that poisoned the store, if any.
func (s *Store) Broken() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.broken
}

func (s *Store) usable() error {
	if s.closed {
		return ErrClosed
	}
	return s.broken
}

// gateLocked blocks while a compaction is in flight (a compaction must
// be the only writer so its fresh segment starts with the snapshot
// record), then re-checks usability.
func (s *Store) gateLocked() error {
	for s.compacting {
		s.cond.Wait()
	}
	return s.usable()
}

// appendLocked frames rec and writes it as a single ordered write, with
// mu held throughout; it returns the record's write generation. The
// caller decides durability via waitDurableLocked.
func (s *Store) appendLocked(rec *wire.StableRecord) (uint64, error) {
	if err := s.usable(); err != nil {
		return 0, err
	}
	frame, err := wire.AppendStableRecord(nil, rec)
	if err != nil {
		return 0, err
	}
	if s.activeSize+int64(len(frame)) > s.opts.SegmentBytes && s.activeSize > 0 {
		if err := s.rollLocked(); err != nil {
			return 0, err
		}
	}
	n, err := s.active.Write(frame)
	s.activeSize += int64(n)
	if err != nil {
		// A short or failed write leaves an undecodable tail; recovery
		// truncates it at the next open.
		return 0, s.poisonLocked(fmt.Errorf("stable: append to %s: %w", s.activeName, err))
	}
	s.writeGen++
	s.metrics.Appends++
	s.metrics.AppendedBytes += uint64(n)
	return s.writeGen, nil
}

// waitDurableLocked is the sync ticket: it returns once the append at
// gen is durable per the policy (durable marks commit-grade records).
// If no flush is in flight the caller becomes the flusher — it captures
// the current write generation as the batch target, fsyncs with mu
// released so concurrent appends keep flowing, then advances the
// watermark and wakes the whole batch. Otherwise the caller waits for
// the watermark; the flusher's one fsync acknowledges every ticket at
// or below its target because file writes become durable in order.
func (s *Store) waitDurableLocked(gen uint64, durable bool) error {
	if s.opts.Sync == SyncNever || (s.opts.Sync == SyncOnCommit && !durable) {
		return nil
	}
	for {
		if s.closed {
			return ErrClosed
		}
		if s.broken != nil {
			return s.broken
		}
		if s.durableGen >= gen {
			return nil
		}
		if s.flushing {
			s.cond.Wait()
			continue
		}
		s.flushing = true
		// Commit window: with the flush claimed but not yet started, yield
		// so committers queued on mu can append into this batch — their
		// records land before the fsync and ride it. With no concurrent
		// committers the yields return immediately.
		s.mu.Unlock()
		runtime.Gosched()
		runtime.Gosched()
		s.mu.Lock()
		// No roll can happen while flushing is set, so active is the file
		// every batched record went to.
		target := s.writeGen
		f, name := s.active, s.activeName
		s.mu.Unlock()
		err := f.Sync()
		s.mu.Lock()
		s.flushing = false
		if err != nil {
			s.poisonLocked(fmt.Errorf("stable: fsync %s: %w", name, err))
		} else {
			s.metrics.Syncs++
			if target > s.durableGen {
				s.durableGen = target
			}
		}
		s.cond.Broadcast()
	}
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
	}
	for _, trig := range s.mem.TentativeTriggers() {
		t, _ := s.mem.Tentative(trig)
		rec.Tentative = append(rec.Tentative, recordsToImages([]checkpoint.Record{t})...)
	}
	return rec
}

// --- checkpoint.Store implementation ---

// SeedPermanent implements checkpoint.Store: it validates against the
// index, then persists the restored state as a snapshot.
func (s *Store) SeedPermanent(st protocol.State) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.gateLocked(); err != nil {
		return err
	}
	if err := s.mem.SeedPermanent(st); err != nil {
		return err
	}
	gen, err := s.appendLocked(s.snapshotRecord())
	if err != nil {
		return err
	}
	return s.waitDurableLocked(gen, true)
}

// SaveTentative implements checkpoint.Store. The record is appended but
// only fsynced under SyncAlways: the later commit's fsync covers it,
// because a file's writes become durable in order.
func (s *Store) SaveTentative(st protocol.State, trig protocol.Trigger, at time.Duration) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.gateLocked(); err != nil {
		return err
	}
	if _, ok := s.mem.Tentative(trig); ok {
		return checkpoint.ErrTentativePending
	}
	gen, err := s.appendLocked(&wire.StableRecord{
		Op: wire.OpTentative, Proc: s.proc, Trigger: trig, At: at, State: st,
	})
	if err != nil {
		return err
	}
	if err := s.mem.SaveTentative(st, trig, at); err != nil {
		return err
	}
	return s.waitDurableLocked(gen, false)
}

// Tentative implements checkpoint.Store.
func (s *Store) Tentative(trig protocol.Trigger) (checkpoint.Record, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mem.Tentative(trig)
}

// TentativeCount implements checkpoint.Store.
func (s *Store) TentativeCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mem.TentativeCount()
}

// TentativeTriggers implements checkpoint.Store.
func (s *Store) TentativeTriggers() []protocol.Trigger {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mem.TentativeTriggers()
}

// MakePermanent implements checkpoint.Store: the durable commit marker.
// Once this returns nil under SyncOnCommit or SyncAlways, the checkpoint
// survives any crash. The index is updated in append order before the
// durability wait, so concurrent committers' log order and index order
// agree; the ticket then coalesces their fsyncs, and the batch shares
// one compaction instead of compacting per commit.
func (s *Store) MakePermanent(trig protocol.Trigger, at time.Duration) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.gateLocked(); err != nil {
		return err
	}
	if _, ok := s.mem.Tentative(trig); !ok {
		return checkpoint.ErrNoTentative
	}
	gen, err := s.appendLocked(&wire.StableRecord{
		Op: wire.OpCommit, Proc: s.proc, Trigger: trig, At: at,
	})
	if err != nil {
		return err
	}
	if err := s.mem.MakePermanent(trig, at); err != nil {
		return err
	}
	if err := s.waitDurableLocked(gen, true); err != nil {
		return err
	}
	if s.opts.Keep > 0 {
		s.sinceCompact++
		if s.sinceCompact >= s.opts.CompactEvery && !s.compacting {
			// The discard rule on disk: superseded permanents leave the
			// log. An in-flight compaction's snapshot already covers this
			// commit (the index mutation above happened before the gate
			// admitted the compactor's snapshot), so skipping is safe.
			return s.compactLocked()
		}
	}
	return nil
}

// DropTentative implements checkpoint.Store (the abort path). The drop
// marker is commit-grade: once acknowledged, the tentative cannot
// resurface at reopen.
func (s *Store) DropTentative(trig protocol.Trigger) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.gateLocked(); err != nil {
		return err
	}
	if _, ok := s.mem.Tentative(trig); !ok {
		return checkpoint.ErrNoTentative
	}
	gen, err := s.appendLocked(&wire.StableRecord{
		Op: wire.OpDrop, Proc: s.proc, Trigger: trig,
	})
	if err != nil {
		return err
	}
	if err := s.mem.DropTentative(trig); err != nil {
		return err
	}
	return s.waitDurableLocked(gen, true)
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

// GC implements checkpoint.Store: it trims the index and compacts the
// log so the dropped permanents leave the disk too. The returned count
// is the number dropped from the index; a compaction failure poisons the
// store (visible via Broken).
func (s *Store) GC(keep int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.gateLocked(); err != nil {
		return 0
	}
	dropped := s.mem.GC(keep)
	if err := s.compactLocked(); err != nil {
		return dropped
	}
	return dropped
}

// Compact writes the current image as a snapshot record into a fresh
// segment, fsyncs it durable, then deletes the older segments. A crash
// anywhere in between is safe: until the snapshot segment is durable the
// old segments still reconstruct the store, and afterwards replay folds
// them into the snapshot that supersedes them.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.gateLocked(); err != nil {
		return err
	}
	return s.compactLocked()
}

// compactLocked runs one compaction with mu held. The compacting flag
// makes it the only writer: the gate holds new appends back so the
// fresh segment's first record is guaranteed to be the snapshot (replay
// restarts from the newest segment that opens with one). Tickets from
// before the compaction drain via rollLocked's fsync of the old active
// segment, so nothing deadlocks on the gate.
func (s *Store) compactLocked() error {
	if err := s.usable(); err != nil {
		return err
	}
	s.compacting = true
	defer func() {
		s.compacting = false
		s.cond.Broadcast()
	}()
	old := append([]string(nil), s.segs...)
	if err := s.rollLocked(); err != nil {
		return err
	}
	gen, err := s.appendLocked(s.snapshotRecord())
	if err != nil {
		return err
	}
	if err := s.waitDurableLocked(gen, true); err != nil {
		return err
	}
	for _, path := range old {
		if err := s.fs.Remove(path); err != nil {
			return s.poisonLocked(fmt.Errorf("stable: compact remove %s: %w", path, err))
		}
	}
	s.segs = s.segs[len(s.segs)-1:]
	if s.opts.Sync != SyncNever {
		if err := s.fs.SyncDir(s.dir); err != nil {
			return s.poisonLocked(fmt.Errorf("stable: compact sync dir %s: %w", s.dir, err))
		}
		s.metrics.Syncs++
	}
	s.sinceCompact = 0
	s.metrics.Compactions++
	return nil
}

// Close flushes and closes the active segment. The store is unusable
// afterwards; reopen with Open. An in-flight flush or compaction
// finishes first.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	for s.flushing || s.compacting {
		s.cond.Wait()
	}
	if s.closed {
		return ErrClosed
	}
	s.closed = true
	s.cond.Broadcast()
	if s.active == nil {
		return nil
	}
	var firstErr error
	if s.broken == nil && s.opts.Sync != SyncNever {
		if err := s.active.Sync(); err != nil {
			firstErr = fmt.Errorf("stable: close fsync %s: %w", s.activeName, err)
		} else {
			s.metrics.Syncs++
		}
	}
	if err := s.active.Close(); err != nil && firstErr == nil {
		firstErr = fmt.Errorf("stable: close %s: %w", s.activeName, err)
	}
	s.active = nil
	return firstErr
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// Proc returns the owning process.
func (s *Store) Proc() protocol.ProcessID { return s.proc }

// Segments returns the live segment paths, oldest first.
func (s *Store) Segments() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.segs...)
}

// Metrics returns the disk-activity counters.
func (s *Store) Metrics() Metrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.metrics
}

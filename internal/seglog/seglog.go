// Package seglog is the crash-safe, append-only segment log under
// internal/stable and internal/chunkstore, and the only package that
// touches the filesystem seam. It knows nothing about what its frames
// mean: a client appends sealed wire record frames and gets their bodies
// back at open, through three callbacks (Client). DESIGN.md "The segment
// log" has the recovery decision table and the compaction crash points.
//
// Layout: one directory of numbered segments, <prefix>-%08d.log. Every
// append is one Write — of one frame, or of a batch of frames laid end to
// end (one Write per segment the batch spans) — so an operation commits
// when its frame is durable, a crash keeps a prefix of a batch, and no
// rename is ever needed. A log starts at a
// boundary: a frame, first in its segment, that supersedes every segment
// before the one it names. A fresh directory gets one, Compact writes the
// next, Open replays from the newest.
//
// A Log is safe for concurrent use, and every call runs under one lock,
// so concurrent writers are serialized rather than batched. Durability is
// one call: Sync fsyncs the active segment if anything was written to it
// since the last fsync. A file's writes become durable in order, so that
// fsync acknowledges every frame appended before it.
package seglog

import (
	"errors"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"sync"

	"mutablecp/internal/wire"
)

// SyncPolicy selects the fsync discipline.
type SyncPolicy int

const (
	// SyncOnCommit fsyncs what is unsynced at each Sync, which the client
	// calls after the appends that acknowledge durability to the protocol
	// (commit, drop), and at the log's own durability points, a roll and
	// a new boundary. The other appends ride the next fsync (file writes
	// are ordered, so a durable commit record implies a durable tentative
	// before it). The default.
	SyncOnCommit SyncPolicy = iota
	// SyncNever never fsyncs: fastest, and an acknowledged commit may
	// vanish in a crash — the log still reopens consistently, it just
	// resumes from an earlier prefix.
	SyncNever
)

// String returns the policy name.
func (p SyncPolicy) String() string {
	switch p {
	case SyncOnCommit:
		return "commit"
	case SyncNever:
		return "never"
	default:
		return "sync?"
	}
}

// Options configures a log. The zero value is the real disk, fsync on
// commit, 4 MiB segments.
type Options struct {
	FS   FS // nil means the real disk
	Sync SyncPolicy
	// SegmentBytes rolls the active segment before an append would take
	// it past this size, so no history grows one unbounded file.
	SegmentBytes int64
}

// Metrics counts the log's disk activity since open.
type Metrics struct {
	Appends       uint64
	AppendedBytes uint64
	Syncs         uint64
	Compactions   uint64
	// ReplayedRecords and TruncatedBytes describe the Open: how many
	// frames were recovered and how many bytes of a damaged tail frame
	// were read before it was cut.
	ReplayedRecords uint64
	TruncatedBytes  int64
}

// Client is what a store tells the log about its frames.
type Client struct {
	// Head reports whether body, the first frame of segment seq, is a
	// boundary and, if so, the segment replay starts at (seq itself, or
	// the first segment of the rewrite it publishes). An error fails the
	// open.
	Head func(seq uint64, body []byte) (start uint64, ok bool, err error)
	// Apply folds one replayed frame into the client's index. An error
	// wrapping wire.ErrCorruptRecord (the body does not parse) is handled
	// like a checksum failure at that frame; any other fails the open.
	Apply func(segment string, offset int64, body []byte) error
	// Boundary seals the boundary frame for a replay starting at segment
	// start, from the client's state at the time of the call.
	Boundary func(start uint64) ([]byte, error)
}

// Pos is where an appended frame went: segment path and start offset,
// for ReadAt.
type Pos struct {
	Segment string
	Offset  int64
}

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("seglog: log is closed")

// Log is one open segment log.
type Log struct {
	dir    string
	prefix string
	opts   Options
	client Client

	mu sync.Mutex

	active     File
	activeName string
	activeSize int64
	dirty      bool     // active holds bytes written since its last fsync
	segs       []uint64 // live segments, oldest first (incl. active)
	nextSeq    uint64   // past every segment name ever seen

	broken  error
	closed  bool
	metrics Metrics
}

func (l *Log) segPath(seq uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("%s-%08d.log", l.prefix, seq))
}

func (l *Log) segSeq(name string) (uint64, bool) {
	var seq uint64
	_, err := fmt.Sscanf(name, l.prefix+"-%08d.log", &seq)
	return seq, err == nil
}

// poisonLocked marks the log broken after a failed write, fsync, close,
// create, remove or directory fsync: the only trustworthy copy of the
// state is then the one a fresh Open rebuilds, so every later mutation
// fails with the first error.
func (l *Log) poisonLocked(err error) error {
	if l.broken == nil {
		l.broken = err
	}
	return err
}

// Broken returns the error that poisoned the log, if any.
func (l *Log) Broken() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.broken
}

func (l *Log) usableLocked() error {
	if l.closed {
		return ErrClosed
	}
	return l.broken
}

// syncActiveLocked fsyncs the active segment unless every byte in it
// already is.
func (l *Log) syncActiveLocked() error {
	if l.opts.Sync == SyncNever || !l.dirty {
		return nil
	}
	if err := l.active.Sync(); err != nil {
		return l.poisonLocked(fmt.Errorf("seglog: fsync %s: %w", l.activeName, err))
	}
	l.metrics.Syncs++
	l.dirty = false
	return nil
}

// syncDirLocked makes created and removed names durable, per policy.
func (l *Log) syncDirLocked() error {
	if l.opts.Sync == SyncNever {
		return nil
	}
	if err := l.opts.FS.SyncDir(l.dir); err != nil {
		return l.poisonLocked(fmt.Errorf("seglog: sync dir %s: %w", l.dir, err))
	}
	l.metrics.Syncs++
	return nil
}

// rollLocked closes the active segment and starts the next, returning
// its sequence number. The old file is fsynced before close so a crash
// cannot tear a mid-log segment; the new name is fsynced into the
// directory so a crash cannot forget a segment whose frames were already
// acknowledged.
func (l *Log) rollLocked() (uint64, error) {
	if err := l.usableLocked(); err != nil {
		return 0, err
	}
	if l.active != nil {
		if err := l.syncActiveLocked(); err != nil {
			return 0, err
		}
		if err := l.active.Close(); err != nil {
			return 0, l.poisonLocked(fmt.Errorf("seglog: close %s: %w", l.activeName, err))
		}
		l.active = nil
	}
	seq := l.nextSeq
	name := l.segPath(seq)
	f, err := l.opts.FS.Create(name)
	if err != nil {
		return 0, l.poisonLocked(fmt.Errorf("seglog: create %s: %w", name, err))
	}
	l.nextSeq++
	l.active, l.activeName, l.activeSize = f, name, 0
	l.segs = append(l.segs, seq)
	return seq, l.syncDirLocked()
}

func (l *Log) roll() (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rollLocked()
}

// Append writes one sealed frame as a single ordered write, rolling
// first if the frame would take a non-empty segment past SegmentBytes.
// Durability is the caller's next decision, via Sync.
func (l *Log) Append(frame []byte) (Pos, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var pos [1]Pos
	err := l.appendLocked(frame, []int{len(frame)}, pos[:])
	return pos[0], err
}

// AppendBatch appends frames, sealed frames laid end to end, exactly as
// one Append per frame would: the same positions, the same bytes and the
// same rolls, always between frames and never inside one. Each run of
// frames that lands in one segment goes out as a single Write, so a
// crash keeps a prefix of the batch. It returns each frame's Pos, in
// order; durability is again the caller's decision.
func (l *Log) AppendBatch(frames []byte) ([]Pos, error) {
	var sizes []int
	for rest := frames; len(rest) > 0; {
		n, err := wire.FrameLen(rest)
		if err != nil {
			return nil, fmt.Errorf("seglog: batch frame %d: %w", len(sizes), err)
		}
		sizes, rest = append(sizes, n), rest[n:]
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	pos := make([]Pos, len(sizes))
	if err := l.appendLocked(frames, sizes, pos); err != nil {
		return nil, err
	}
	return pos, nil
}

// appendLocked writes buf, the frames of the given sizes back to back,
// and fills in their positions.
func (l *Log) appendLocked(buf []byte, sizes []int, pos []Pos) error {
	if err := l.usableLocked(); err != nil {
		return err
	}
	for i := 0; i < len(sizes); {
		if l.activeSize+int64(sizes[i]) > l.opts.SegmentBytes && l.activeSize > 0 {
			if _, err := l.rollLocked(); err != nil {
				return err
			}
		}
		// Frame i fits (or the segment is empty); so do the ones after it
		// up to the next roll.
		j, run := i, 0
		for j < len(sizes) && (j == i || l.activeSize+int64(run+sizes[j]) <= l.opts.SegmentBytes) {
			pos[j] = Pos{Segment: l.activeName, Offset: l.activeSize + int64(run)}
			run += sizes[j]
			j++
		}
		n, err := l.active.Write(buf[:run])
		l.activeSize += int64(n)
		l.dirty = true
		if err != nil {
			// A short or failed write leaves an undecodable tail; recovery
			// truncates it at the next open.
			return l.poisonLocked(fmt.Errorf("seglog: append to %s: %w", l.activeName, err))
		}
		l.metrics.Appends += uint64(j - i)
		l.metrics.AppendedBytes += uint64(n)
		buf, i = buf[run:], j
	}
	return nil
}

// Sync makes every frame appended so far durable, per the policy: under
// SyncOnCommit it fsyncs the active segment if anything was written to it
// since its last fsync, and under SyncNever it does nothing.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usableLocked(); err != nil {
		return err
	}
	return l.syncActiveLocked()
}

// Compact publishes a new boundary and removes what it supersedes. The
// log rolls, and the segment it starts is the one the boundary names.
// Without a rewrite the boundary frame is itself the whole live state and
// goes straight into that segment. With one, rewrite appends the live set
// there (through Append) and the log rolls again — which fsyncs the
// rewrite — so the boundary is only ever durable after what it points at.
// Every older segment is then removed. Until the boundary is durable the
// old chain still reconstructs the state; afterwards recovery ignores,
// and removes, whatever prefix a crash left behind.
//
// The caller must keep every other appender out until Compact returns,
// so that the boundary is first in its segment; both stores call it
// under their index lock.
func (l *Log) Compact(rewrite func() error) error {
	start, err := l.roll()
	if err == nil && rewrite != nil {
		if err = rewrite(); err == nil {
			_, err = l.roll()
		}
	}
	if err != nil {
		return err
	}
	frame, err := l.client.Boundary(start)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var pos [1]Pos
	if err := l.appendLocked(frame, []int{len(frame)}, pos[:]); err != nil {
		return err
	}
	if err := l.syncActiveLocked(); err != nil {
		return err
	}
	l.metrics.Compactions++
	if l.segs[0] >= start {
		return nil
	}
	for l.segs[0] < start {
		if err := l.opts.FS.Remove(l.segPath(l.segs[0])); err != nil {
			return l.poisonLocked(fmt.Errorf("seglog: remove segment %d: %w", l.segs[0], err))
		}
		l.segs = l.segs[1:]
	}
	return l.syncDirLocked()
}

// ReadAt returns the body of the frame that starts at off in segment. It
// reads the frame's header and body at their offsets, nothing before them.
func (l *Log) ReadAt(segment string, off int64) ([]byte, error) {
	f, err := l.opts.FS.Open(segment)
	if err != nil {
		return nil, fmt.Errorf("seglog: open %s: %w", segment, err)
	}
	defer f.Close() //nolint:errcheck // read-only handle
	body, _, err := wire.ReadFrame(io.NewSectionReader(f, off, math.MaxInt64-off))
	if err != nil {
		return nil, fmt.Errorf("seglog: read %s at %d: %w", segment, off, err)
	}
	return body, nil
}

// Close flushes (per policy) and closes the active segment. The log is
// unusable afterwards.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	l.closed = true
	if l.active == nil {
		return nil
	}
	var err error
	if l.broken == nil {
		err = l.syncActiveLocked()
	}
	if cerr := l.active.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("seglog: close %s: %w", l.activeName, cerr)
	}
	l.active = nil
	return err
}

// Segments returns the live segment paths, oldest first.
func (l *Log) Segments() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	paths := make([]string, len(l.segs))
	for i, seq := range l.segs {
		paths[i] = l.segPath(seq)
	}
	return paths
}

// Metrics returns the disk-activity counters.
func (l *Log) Metrics() Metrics {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.metrics
}

package seglog

// Open-time recovery: the one rule that decides what a directory of
// segments means after a crash (decision table in DESIGN.md "The segment
// log"). All reads come first; nothing on disk is modified until every
// segment that matters has been read without an I/O error, so a disk
// that fails during Open costs nothing it held.
//
// The first frame of each segment, newest first, goes to Client.Head
// until one is a boundary: a crash during compaction can leave any subset
// of the superseded segments behind, so the oldest file present proves
// nothing, while the newest boundary was durable before anything it
// supersedes was removed. Replay runs from the segment it names to the
// end. Damage in the last segment is a crash artifact and is cut; earlier
// it has no innocent explanation and fails the open, as does an intact
// frame of another format version anywhere — another build's log, which
// cutting would discard. Only then are the tail truncated, the superseded
// prefix removed and the last segment reopened for appending.
//
// With no boundary, either every segment is empty or ends inside its
// first frame — the debris of a crash during initialization, which holds
// nothing acknowledged because the first boundary is durable before Open
// returns — and the log is started again, or the open fails.

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"mutablecp/internal/wire"
)

// isDamage reports a frame the writer did not finish or the medium
// altered, as opposed to an I/O error or a client's semantic failure.
func isDamage(err error) bool {
	return errors.Is(err, wire.ErrTornRecord) || errors.Is(err, wire.ErrCorruptRecord)
}

// Open opens (or creates) the log of <prefix>-*.log segments in dir and
// replays it into the client.
func Open(dir, prefix string, opts Options, client Client) (*Log, error) {
	if opts.FS == nil {
		opts.FS = OS()
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 4 << 20
	}
	l := &Log{dir: dir, prefix: prefix, opts: opts, client: client, nextSeq: 1}
	if err := l.opts.FS.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("seglog: mkdir %s: %w", dir, err)
	}
	names, err := l.opts.FS.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("seglog: list %s: %w", dir, err)
	}
	for _, name := range names {
		if seq, ok := l.segSeq(name); ok {
			l.segs = append(l.segs, seq)
		}
	}
	sort.Slice(l.segs, func(i, j int) bool { return l.segs[i] < l.segs[j] })
	if n := len(l.segs); n > 0 {
		l.nextSeq = l.segs[n-1] + 1
	}
	if err := l.recover(); err != nil {
		if l.active != nil {
			l.active.Close() //nolint:errcheck // the open already failed
		}
		return nil, err
	}
	return l, nil
}

func (l *Log) recover() error {
	start, debris := -1, true
	for i := len(l.segs) - 1; i >= 0 && start < 0; i-- {
		path := l.segPath(l.segs[i])
		body, err := l.ReadAt(path, 0)
		if errors.Is(err, io.EOF) || errors.Is(err, wire.ErrTornRecord) {
			continue // the file ends before or inside its first frame
		}
		debris = false
		if errors.Is(err, wire.ErrCorruptRecord) {
			continue
		}
		if err != nil {
			return err
		}
		seq, ok, err := l.client.Head(l.segs[i], body)
		if err != nil {
			return fmt.Errorf("seglog: %s: %w", path, err)
		}
		if !ok {
			continue
		}
		start = sort.Search(len(l.segs), func(k int) bool { return l.segs[k] >= seq })
		if start > i || l.segs[start] != seq {
			return fmt.Errorf("seglog: %s: boundary names missing segment %d", path, seq)
		}
	}
	if start < 0 {
		if !debris {
			return fmt.Errorf("seglog: %s: segments hold frames but no boundary to replay from", l.dir)
		}
		// Debris, or nothing at all: start the log. nextSeq is past every
		// name ever used, so if a crash resurrects a segment whose removal
		// was still volatile, the new boundary is strictly newer than it.
		if err := l.Compact(nil); err != nil {
			return fmt.Errorf("seglog: init %s: %w", l.dir, err)
		}
		l.metrics.Compactions = 0 // starting a log is not a compaction
		return nil
	}

	stale := l.segs[:start]
	l.segs = append([]uint64(nil), l.segs[start:]...)
	torn := false
	for i, seq := range l.segs {
		l.activeName = l.segPath(seq)
		valid, err := l.replay(l.activeName)
		l.activeSize = valid
		if err == nil {
			continue
		}
		if !isDamage(err) {
			return err
		}
		if i != len(l.segs)-1 {
			return fmt.Errorf("seglog: mid-log damage: %w", err)
		}
		torn = true
	}
	if torn {
		if err := l.opts.FS.Truncate(l.activeName, l.activeSize); err != nil {
			return fmt.Errorf("seglog: truncate torn tail of %s: %w", l.activeName, err)
		}
	}
	for _, seq := range stale {
		if err := l.opts.FS.Remove(l.segPath(seq)); err != nil {
			return fmt.Errorf("seglog: remove stale segment %d: %w", seq, err)
		}
	}
	if len(stale) > 0 {
		if err := l.syncDirLocked(); err != nil {
			return err
		}
	}
	f, err := l.opts.FS.OpenAppend(l.activeName)
	if err != nil {
		return fmt.Errorf("seglog: reopen %s: %w", l.activeName, err)
	}
	l.active = f
	// Nothing says the bytes replayed from the last segment were ever
	// fsynced (a poisoned log can be reopened without a power cut), so
	// they count as unsynced: the next Sync or roll fsyncs them before
	// anything is acknowledged on top.
	l.dirty = true
	return nil
}

// replay applies one segment's frames to the client and returns the
// offset of the end of the last good one. Its error is nil at a clean
// end, damage (isDamage) for a frame that is torn, fails its checksum or
// does not parse, and anything else for an I/O error or a frame the
// client cannot apply.
func (l *Log) replay(path string) (int64, error) {
	f, err := l.opts.FS.Open(path)
	if err != nil {
		return 0, fmt.Errorf("seglog: open %s: %w", path, err)
	}
	defer f.Close() //nolint:errcheck // read-only handle
	var valid int64
	for {
		body, n, err := wire.ReadFrame(f)
		if err == io.EOF {
			return valid, nil
		}
		if err == nil {
			err = l.client.Apply(path, valid, body)
		}
		if err != nil {
			if isDamage(err) {
				l.metrics.TruncatedBytes += int64(n)
			}
			return valid, fmt.Errorf("seglog: %s at offset %d: %w", path, valid, err)
		}
		valid += int64(n)
		l.metrics.ReplayedRecords++
	}
}

package seglog_test

// The log is tested against opaque frames: a client whose whole state is
// a run of consecutive ids, which is enough to tell a lost frame from a
// surfaced one. Three body kinds, each a kind byte and uvarints:
//
//	'D' id            one datum; applying an id already held is a no-op,
//	                  as a replayed rewrite restates what the old chain has
//	'S' floor last    a snapshot boundary: the whole state, names itself
//	'R' start         a reset boundary: names the first rewritten segment
//	'F' floor         heads a rewrite: where its ids start. It only takes
//	                  effect on a state that has not reached floor yet, so
//	                  after the old chain it, too, restates
//
// The state is the ids in (floor, last]. A compaction raises floor.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"testing"

	"mutablecp/internal/seglog"
	"mutablecp/internal/stable/errfs"
	"mutablecp/internal/wire"
)

const dir = "log"

// seal frames a body the way wire does: [len][CRC32C][body].
func seal(body []byte) []byte {
	frame := binary.BigEndian.AppendUint32(nil, uint32(len(body)))
	frame = binary.BigEndian.AppendUint32(frame, crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
	return append(frame, body...)
}

func body(kind byte, vals ...uint64) []byte {
	b := []byte{kind}
	for _, v := range vals {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

func parse(b []byte) (kind byte, vals []uint64, err error) {
	if len(b) == 0 {
		return 0, nil, fmt.Errorf("%w: empty body", wire.ErrCorruptRecord)
	}
	for rest := b[1:]; len(rest) > 0; {
		v, k := binary.Uvarint(rest)
		if k <= 0 {
			return 0, nil, fmt.Errorf("%w: bad uvarint", wire.ErrCorruptRecord)
		}
		vals, rest = append(vals, v), rest[k:]
	}
	return b[0], vals, nil
}

// memo is the test client.
type memo struct {
	floor, last uint64
	reset       bool // the next boundary is an 'R', not an 'S'
	// single writes what would be one AppendBatch as one Append per
	// frame: the twin every batch is compared against.
	single bool
}

func (m *memo) client() seglog.Client {
	return seglog.Client{
		Head: func(seq uint64, b []byte) (uint64, bool, error) {
			switch kind, vals, err := parse(b); {
			case err != nil:
				return 0, false, nil
			case kind == 'S':
				return seq, true, nil
			case kind == 'R':
				return vals[0], true, nil
			case kind == 0xFF:
				return 0, false, wire.ErrFormatVersion
			}
			return 0, false, nil
		},
		Apply: func(_ string, _ int64, b []byte) error {
			kind, vals, err := parse(b)
			if err != nil {
				return err
			}
			switch kind {
			case 'S':
				m.floor, m.last = vals[0], vals[1]
			case 'R':
			case 'F':
				if m.last < vals[0] {
					m.floor, m.last = vals[0], vals[0]
				}
			case 'D':
				switch id := vals[0]; {
				case id <= m.last:
				case id == m.last+1:
					m.last = id
				default:
					return fmt.Errorf("id %d after %d: a frame is missing", id, m.last)
				}
			case 0xFF:
				return wire.ErrFormatVersion
			default:
				return fmt.Errorf("unknown kind %q", kind)
			}
			return nil
		},
		Boundary: func(start uint64) ([]byte, error) {
			if m.reset {
				return seal(body('R', start)), nil
			}
			return seal(body('S', m.floor, m.last)), nil
		},
	}
}

// syncIf syncs the log if commit is set.
func syncIf(l *seglog.Log, commit bool) error {
	if !commit {
		return nil
	}
	return l.Sync()
}

// put appends the next id and, if commit is set, syncs it.
func (m *memo) put(l *seglog.Log, commit bool) error {
	if _, err := l.Append(seal(body('D', m.last+1))); err != nil {
		return err
	}
	m.last++
	return syncIf(l, commit)
}

// putBatch appends the next n ids together and, if commit is set, syncs
// them, returning their positions.
func (m *memo) putBatch(l *seglog.Log, n int, commit bool) ([]seglog.Pos, error) {
	var frames [][]byte
	for i := 1; i <= n; i++ {
		frames = append(frames, seal(body('D', m.last+uint64(i))))
	}
	pos, err := m.append(l, frames)
	if err != nil {
		return nil, err
	}
	m.last += uint64(n)
	return pos, syncIf(l, commit)
}

// append writes frames as one AppendBatch, or (single) one Append each.
func (m *memo) append(l *seglog.Log, frames [][]byte) ([]seglog.Pos, error) {
	if !m.single {
		return l.AppendBatch(bytes.Join(frames, nil))
	}
	pos := make([]seglog.Pos, len(frames))
	for i, f := range frames {
		p, err := l.Append(f)
		if err != nil {
			return nil, err
		}
		pos[i] = p
	}
	return pos, nil
}

// compact raises the floor to drop everything but the newest keep ids,
// through a snapshot boundary or (rewrite) a rewritten live set behind a
// reset boundary.
func (m *memo) compact(l *seglog.Log, keep uint64, rewrite bool) error {
	if m.last-m.floor > keep {
		m.floor = m.last - keep
	}
	m.reset = rewrite
	if !rewrite {
		return l.Compact(nil)
	}
	return l.Compact(func() error {
		frames := [][]byte{seal(body('F', m.floor))}
		for id := m.floor + 1; id <= m.last; id++ {
			frames = append(frames, seal(body('D', id)))
		}
		_, err := m.append(l, frames)
		return err
	})
}

func open(t *testing.T, fs seglog.FS, pol seglog.SyncPolicy) (*seglog.Log, *memo, error) {
	t.Helper()
	m := &memo{}
	l, err := seglog.Open(dir, "t", seglog.Options{FS: fs, Sync: pol, SegmentBytes: 32}, m.client())
	return l, m, err
}

func mustOpen(t *testing.T, fs seglog.FS, pol seglog.SyncPolicy) (*seglog.Log, *memo) {
	t.Helper()
	l, m, err := open(t, fs, pol)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return l, m
}

// TestModel drives a random append/batch/roll/compact/reopen schedule
// against an in-memory model of the frames that must be live. A twin log
// runs the same schedule with every batch (the compaction rewrites
// included) written one Append per frame instead: the positions and the
// disk bytes of the two must agree after every step, batches that roll
// between their frames included.
func TestModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fs, twinFS := errfs.New(), errfs.New()
		l, m := mustOpen(t, fs, seglog.SyncOnCommit)
		tl, tm := mustOpen(t, twinFS, seglog.SyncOnCommit)
		tm.single = true
		var model [][]byte // bodies of the live data frames, oldest first
		check := func(when string) {
			t.Helper()
			if uint64(len(model)) != m.last-m.floor {
				t.Fatalf("seed %d %s: client holds (%d,%d], model has %d frames", seed, when, m.floor, m.last, len(model))
			}
			for i, b := range model {
				if want := body('D', m.floor+1+uint64(i)); !bytes.Equal(b, want) {
					t.Fatalf("seed %d %s: frame %d is %x, want %x", seed, when, i, b, want)
				}
			}
			if !bytes.Equal(fs.Snapshot(), twinFS.Snapshot()) {
				t.Fatalf("seed %d %s: batched appends left other bytes than single ones", seed, when)
			}
			checkReadAt(t, fs, l)
		}
		for step := 0; step < 200; step++ {
			switch r := rng.Intn(100); {
			case r < 60: // SegmentBytes 32 rolls every fourth append
				model = append(model, body('D', m.last+1))
				commit := rng.Intn(3) == 0
				if err := m.put(l, commit); err != nil {
					t.Fatal(err)
				}
				if err := tm.put(tl, commit); err != nil {
					t.Fatal(err)
				}
			case r < 80: // up to seven frames: a batch may span three segments
				n, commit := 1+rng.Intn(7), rng.Intn(3) == 0
				for i := 1; i <= n; i++ {
					model = append(model, body('D', m.last+uint64(i)))
				}
				pos, err := m.putBatch(l, n, commit)
				if err != nil {
					t.Fatal(err)
				}
				twin, err := tm.putBatch(tl, n, commit)
				if err != nil {
					t.Fatal(err)
				}
				if fmt.Sprint(pos) != fmt.Sprint(twin) {
					t.Fatalf("seed %d step %d: batch positions %v, one at a time %v", seed, step, pos, twin)
				}
			case r < 90:
				keep, rewrite := uint64(rng.Intn(6)), rng.Intn(2) == 0
				if err := m.compact(l, keep, rewrite); err != nil {
					t.Fatal(err)
				}
				if err := tm.compact(tl, keep, rewrite); err != nil {
					t.Fatal(err)
				}
				if uint64(len(model)) > keep {
					model = model[uint64(len(model))-keep:]
				}
				if got := l.Metrics().Compactions; got == 0 {
					t.Fatal("compaction not counted")
				}
			default:
				before := *m
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
				if err := tl.Close(); err != nil {
					t.Fatal(err)
				}
				l, m = mustOpen(t, fs, seglog.SyncOnCommit)
				tl, tm = mustOpen(t, twinFS, seglog.SyncOnCommit)
				tm.single = true
				if m.floor != before.floor || m.last != before.last {
					t.Fatalf("seed %d step %d: reopened to (%d,%d], had (%d,%d]", seed, step, m.floor, m.last, before.floor, before.last)
				}
			}
			check(fmt.Sprintf("step %d", step))
		}
		if got, twin := l.Metrics(), tl.Metrics(); got != twin {
			t.Fatalf("seed %d: metrics %+v, one at a time %+v", seed, got, twin)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); !errors.Is(err, seglog.ErrClosed) {
			t.Fatalf("second close: %v", err)
		}
		tl.Close()
	}
}

// checkReadAt compares ReadAt at every frame of every live segment, and
// at each segment's end, where both must fail, with a reference that
// reaches the frame by reading the segment's whole prefix.
func checkReadAt(t *testing.T, fs seglog.FS, l *seglog.Log) {
	t.Helper()
	for _, seg := range l.Segments() {
		for off := int64(0); ; {
			want, n, werr := prefixRead(fs, seg, off)
			got, err := l.ReadAt(seg, off)
			if (err == nil) != (werr == nil) || !bytes.Equal(got, want) {
				t.Fatalf("ReadAt(%s, %d) = %x, %v; reading the prefix gives %x, %v", seg, off, got, err, want, werr)
			}
			if werr != nil {
				break
			}
			off += int64(n)
		}
	}
}

func prefixRead(fs seglog.FS, seg string, off int64) ([]byte, int, error) {
	f, err := fs.Open(seg)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	if _, err := io.CopyN(io.Discard, f, off); err != nil {
		return nil, 0, err
	}
	return wire.ReadFrame(f)
}

// TestAppendBatchRefusesTornInput: a batch whose last frame is cut short
// is refused before anything is written, and leaves the log usable.
func TestAppendBatchRefusesTornInput(t *testing.T) {
	fs := errfs.New()
	l, m := mustOpen(t, fs, seglog.SyncOnCommit)
	defer l.Close()
	before := fs.Snapshot()
	batch := append(seal(body('D', 1)), seal(body('D', 2))...)
	if _, err := l.AppendBatch(batch[:len(batch)-1]); !errors.Is(err, wire.ErrTornRecord) {
		t.Fatalf("torn batch: %v", err)
	}
	if !bytes.Equal(before, fs.Snapshot()) || l.Broken() != nil {
		t.Fatal("a refused batch wrote or poisoned the log")
	}
	if _, err := m.putBatch(l, 2, true); err != nil {
		t.Fatal(err)
	}
}

// TestReadAt reads frames back by the position Append reported, across a
// roll.
func TestReadAt(t *testing.T) {
	l, m := mustOpen(t, errfs.New(), seglog.SyncNever)
	defer l.Close()
	var at []seglog.Pos
	for i := 0; i < 10; i++ {
		pos, err := l.Append(seal(body('D', m.last+1)))
		if err != nil {
			t.Fatal(err)
		}
		m.last++
		at = append(at, pos)
	}
	if at[0].Segment == at[9].Segment {
		t.Fatal("ten frames did not roll a 32-byte segment")
	}
	for i, pos := range at {
		got, err := l.ReadAt(pos.Segment, pos.Offset)
		if err != nil || !bytes.Equal(got, body('D', uint64(i+1))) {
			t.Fatalf("frame %d at %s+%d: %x, %v", i, pos.Segment, pos.Offset, got, err)
		}
	}
}

// damaged builds a log of nine acked ids over four segments on fs and
// returns the segments.
func damaged(t *testing.T, fs *errfs.MemFS) []string {
	t.Helper()
	l, m := mustOpen(t, fs, seglog.SyncOnCommit)
	for i := 0; i < 9; i++ {
		if err := m.put(l, true); err != nil {
			t.Fatal(err)
		}
	}
	segs := l.Segments()
	if len(segs) != 4 {
		t.Fatalf("segments = %v", segs)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return segs
}

func appendRaw(t *testing.T, fs *errfs.MemFS, path string, b []byte) {
	t.Helper()
	f, err := fs.OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
	f.Close()
}

// TestRecoveryRule is the decision table of DESIGN.md "The segment log":
// what each kind of damage does in the last segment and in an earlier one.
func TestRecoveryRule(t *testing.T) {
	foreign := seal([]byte{0xFF})
	cases := []struct {
		name   string
		damage func(t *testing.T, fs *errfs.MemFS, segs []string)
		want   uint64 // ids recovered; 0 means the open must fail
		is     error  // and wrap this, if set
		cut    bool   // the last segment must come back shorter
	}{
		{name: "clean", damage: func(*testing.T, *errfs.MemFS, []string) {}, want: 9},
		{name: "torn tail, last", cut: true, want: 8, damage: func(t *testing.T, fs *errfs.MemFS, segs []string) {
			last := segs[len(segs)-1]
			data, _ := fs.FileData(last)
			if err := fs.Truncate(last, int64(len(data)-2)); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "corrupt tail, last", cut: true, want: 8, damage: func(t *testing.T, fs *errfs.MemFS, segs []string) {
			last := segs[len(segs)-1]
			data, _ := fs.FileData(last)
			if err := fs.CorruptByte(last, len(data)-1); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "torn, earlier", is: wire.ErrTornRecord, damage: func(t *testing.T, fs *errfs.MemFS, segs []string) {
			data, _ := fs.FileData(segs[1])
			if err := fs.Truncate(segs[1], int64(len(data)-2)); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "corrupt, earlier", is: wire.ErrCorruptRecord, damage: func(t *testing.T, fs *errfs.MemFS, segs []string) {
			if err := fs.CorruptByte(segs[1], 9); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "foreign version, last", is: wire.ErrFormatVersion, damage: func(t *testing.T, fs *errfs.MemFS, segs []string) {
			appendRaw(t, fs, segs[len(segs)-1], foreign)
		}},
		{name: "foreign version, earlier", is: wire.ErrFormatVersion, damage: func(t *testing.T, fs *errfs.MemFS, segs []string) {
			appendRaw(t, fs, segs[1], foreign)
		}},
		{name: "boundary lost", damage: func(t *testing.T, fs *errfs.MemFS, segs []string) {
			// Intact frames with no boundary before them: never wiped.
			if err := fs.CorruptByte(segs[0], 9); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := errfs.New()
			segs := damaged(t, fs)
			tc.damage(t, fs, segs)
			before := fs.Snapshot()
			last := segs[len(segs)-1]
			lastBefore, _ := fs.FileData(last)
			l, m, err := open(t, fs, seglog.SyncOnCommit)
			if tc.want == 0 {
				if err == nil {
					t.Fatalf("open succeeded with state (%d,%d]", m.floor, m.last)
				}
				if tc.is != nil && !errors.Is(err, tc.is) {
					t.Fatalf("open: %v, want %v", err, tc.is)
				}
				if !bytes.Equal(before, fs.Snapshot()) {
					t.Fatal("a failed open modified the disk")
				}
				return
			}
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			defer l.Close()
			if m.last != tc.want {
				t.Fatalf("recovered %d ids, want %d", m.last, tc.want)
			}
			lastAfter, _ := fs.FileData(last)
			if cut := len(lastAfter) < len(lastBefore); cut != tc.cut || (cut && l.Metrics().TruncatedBytes == 0) {
				t.Fatalf("last segment %d -> %d bytes, truncated metric %d", len(lastBefore), len(lastAfter), l.Metrics().TruncatedBytes)
			}
			// The log is whole again: an append lands on a clean tail.
			if err := m.put(l, true); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestInitDebrisRestarted: segments that end inside their first frame are
// what a crash during initialization leaves; the log starts again, past
// every name already used, and nothing else is ever treated that way.
func TestInitDebrisRestarted(t *testing.T) {
	fs := errfs.New()
	if err := fs.MkdirAll(dir); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"log/t-00000003.log", "log/t-00000007.log"} {
		f, err := fs.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		if name == "log/t-00000007.log" {
			f.Write(seal(body('S', 0, 0))[:5])
		}
		f.Close()
	}
	l, m := mustOpen(t, fs, seglog.SyncOnCommit)
	if segs := l.Segments(); len(segs) != 1 || segs[0] != "log/t-00000008.log" {
		t.Fatalf("segments after restart = %v", segs)
	}
	if names, _ := fs.ReadDir(dir); len(names) != 1 {
		t.Fatalf("debris left behind: %v", names)
	}
	if l.Metrics().Compactions != 0 {
		t.Fatal("starting a log counted as a compaction")
	}
	if err := m.put(l, true); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, m = mustOpen(t, fs, seglog.SyncOnCommit); m.last != 1 {
		t.Fatalf("reopened to %d ids", m.last)
	}
}

// TestOpenIOErrorModifiesNothing: an I/O error at open is neither "absent"
// nor "torn". Whatever fails — listing, opening or reading a segment — the
// open fails with that error, unclassified, and the disk image is
// byte-identical afterwards; a healthy reopen then recovers everything.
func TestOpenIOErrorModifiesNothing(t *testing.T) {
	eio := errors.New("input/output error")
	failOp := func(op errfs.Op) func(*errfs.MemFS) seglog.FS {
		return func(fs *errfs.MemFS) seglog.FS {
			fs.SetHook(func(o errfs.Op, _ string) errfs.Fault {
				if o == op {
					return errfs.FaultErr
				}
				return errfs.FaultNone
			})
			return fs
		}
	}
	cases := []struct {
		name string
		wrap func(*errfs.MemFS) seglog.FS
		is   error
	}{
		{"ReadDir fails", failOp(errfs.OpReadDir), errfs.ErrInjected},
		{"Open fails", failOp(errfs.OpOpen), errfs.ErrInjected},
		{"read fails in the first frame", func(fs *errfs.MemFS) seglog.FS { return errfs.ReadFault(fs, 4, eio) }, eio},
		{"read fails mid-segment", func(fs *errfs.MemFS) seglog.FS { return errfs.ReadFault(fs, 30, eio) }, eio},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := errfs.New()
			damaged(t, fs) // undamaged
			before := fs.Snapshot()
			_, _, err := open(t, tc.wrap(fs), seglog.SyncOnCommit)
			fs.SetHook(nil)
			if err == nil || !errors.Is(err, tc.is) {
				t.Fatalf("open: %v, want %v", err, tc.is)
			}
			if errors.Is(err, wire.ErrTornRecord) || errors.Is(err, wire.ErrCorruptRecord) {
				t.Fatalf("an I/O error was classified as damage: %v", err)
			}
			if !bytes.Equal(before, fs.Snapshot()) {
				t.Fatal("the failed open modified the disk")
			}
			l, m := mustOpen(t, fs, seglog.SyncOnCommit)
			defer l.Close()
			if m.last != 9 {
				t.Fatalf("healthy reopen recovered %d of 9 ids", m.last)
			}
		})
	}
}

// TestFsyncFailurePoisons: after a failed fsync nothing about the disk
// can be trusted, so the log refuses every further mutation until it is
// reopened.
func TestFsyncFailurePoisons(t *testing.T) {
	fs := errfs.New()
	l, m := mustOpen(t, fs, seglog.SyncOnCommit)
	fs.SetHook(func(op errfs.Op, _ string) errfs.Fault {
		if op == errfs.OpSync {
			return errfs.FaultErr
		}
		return errfs.FaultNone
	})
	if err := m.put(l, true); !errors.Is(err, errfs.ErrInjected) {
		t.Fatalf("durable append with failing fsync: %v", err)
	}
	fs.SetHook(nil)
	if l.Broken() == nil {
		t.Fatal("log not poisoned")
	}
	if _, err := l.Append(seal(body('D', m.last+1))); !errors.Is(err, errfs.ErrInjected) {
		t.Fatalf("poisoned log accepted an append: %v", err)
	}
	if err := l.Compact(nil); !errors.Is(err, errfs.ErrInjected) {
		t.Fatalf("poisoned log accepted a compaction: %v", err)
	}
	l.Close()
	if _, m = mustOpen(t, fs, seglog.SyncOnCommit); m.last > 1 {
		t.Fatalf("reopened to %d ids", m.last)
	}
}

// TestSyncCountContract pins the fsyncs the per-layer sync counters rest
// on. Under SyncOnCommit a Sync fsyncs the active segment once for
// everything appended since its last fsync, and not at all when nothing
// was; a roll skips the fsync of a segment a Sync left clean; a reopened
// log counts its replayed bytes as unsynced. Under SyncNever nothing is
// ever fsynced. Metrics.Syncs counts exactly the file and directory
// fsyncs the disk saw.
func TestSyncCountContract(t *testing.T) {
	var files, dirs int // fsyncs since the log was opened
	hook := func(op errfs.Op, _ string) errfs.Fault {
		switch op {
		case errfs.OpSync:
			files++
		case errfs.OpSyncDir:
			dirs++
		}
		return errfs.FaultNone
	}
	fs := errfs.New()
	fs.SetHook(hook)
	step := func(l *seglog.Log, what string, do func() error, want int) {
		t.Helper()
		before := files
		if err := do(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got := files - before; got != want {
			t.Fatalf("%s: %d segment fsyncs, want %d", what, got, want)
		}
		if got := l.Metrics().Syncs; got != uint64(files+dirs) {
			t.Fatalf("%s: Metrics.Syncs %d, the disk saw %d fsyncs", what, got, files+dirs)
		}
	}
	l, m := mustOpen(t, fs, seglog.SyncOnCommit) // segments of 32 bytes: the boundary and two ids
	put := func() error { return m.put(l, false) }
	step(l, "two appends", func() error {
		if err := put(); err != nil {
			return err
		}
		return put()
	}, 0)
	step(l, "Sync after appends", l.Sync, 1)
	step(l, "Sync with nothing new", l.Sync, 0)
	first := l.Segments()
	step(l, "append that rolls a synced segment", put, 0)
	if segs := l.Segments(); len(segs) != len(first)+1 {
		t.Fatalf("the append did not roll: %v -> %v", first, segs)
	}
	step(l, "Sync in the new segment", l.Sync, 1)
	step(l, "Close of a synced log", l.Close, 0)

	files, dirs = 0, 0
	l, m = mustOpen(t, fs, seglog.SyncOnCommit)
	if m.last != 3 {
		t.Fatalf("reopened to %d ids", m.last)
	}
	step(l, "first Sync after reopen", l.Sync, 1)
	step(l, "second Sync after reopen", l.Sync, 0)
	l.Close()

	fs, files, dirs = errfs.New(), 0, 0
	fs.SetHook(hook)
	l, m = mustOpen(t, fs, seglog.SyncNever)
	for i := 0; i < 5; i++ {
		step(l, "SyncNever append and Sync", func() error { return m.put(l, true) }, 0)
	}
	step(l, "SyncNever compaction", func() error { return m.compact(l, 1, true) }, 0)
	step(l, "SyncNever Close", l.Close, 0)
	if files+dirs != 0 {
		t.Fatalf("SyncNever fsynced %d files and %d directories", files, dirs)
	}
}

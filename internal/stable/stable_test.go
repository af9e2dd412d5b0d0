package stable_test

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"path/filepath"
	"testing"
	"time"

	"mutablecp/internal/checkpoint"
	"mutablecp/internal/protocol"
	"mutablecp/internal/stable"
	"mutablecp/internal/stable/errfs"
	"mutablecp/internal/wire"
)

func state(proc, n, csn int) protocol.State {
	s := protocol.State{
		Proc:     proc,
		CSN:      csn,
		SentTo:   make([]uint64, n),
		RecvFrom: make([]uint64, n),
	}
	s.SentTo[0] = uint64(csn) * 10 // make states distinguishable byte-wise
	return s
}

// sameState asserts two checkpoint.Store implementations answer every
// query identically — the drift guard between the durable and in-memory
// backends.
func sameState(t *testing.T, got, want checkpoint.Store) {
	t.Helper()
	gp, wp := got.Permanent(), want.Permanent()
	if gp.State.CSN != wp.State.CSN || gp.Trigger != wp.Trigger || gp.SavedAt != wp.SavedAt {
		t.Fatalf("permanent: got %+v want %+v", gp, wp)
	}
	gh, wh := got.History(), want.History()
	if len(gh) != len(wh) {
		t.Fatalf("history length: got %d want %d", len(gh), len(wh))
	}
	for i := range gh {
		if gh[i].State.CSN != wh[i].State.CSN || gh[i].Status != wh[i].Status {
			t.Fatalf("history[%d]: got %+v want %+v", i, gh[i], wh[i])
		}
	}
	if len(got.TentativeTriggers()) != len(want.TentativeTriggers()) {
		t.Fatalf("tentatives: got %d want %d", len(got.TentativeTriggers()), len(want.TentativeTriggers()))
	}
	for _, trig := range want.TentativeTriggers() {
		gr, ok := got.Tentative(trig)
		if !ok {
			t.Fatalf("tentative %v missing", trig)
		}
		wr, _ := want.Tentative(trig)
		if gr.State.CSN != wr.State.CSN || gr.SavedAt != wr.SavedAt {
			t.Fatalf("tentative %v: got %+v want %+v", trig, gr, wr)
		}
	}
}

func TestFreshStoreMatchesMemory(t *testing.T) {
	st, err := stable.Open("mss/p000", 0, 3, stable.Options{FS: errfs.New()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sameState(t, st, checkpoint.NewStableStore(0))
}

// TestLifecycleParity drives the durable store and the in-memory store
// through the same mixed lifecycle and demands identical answers after
// every step.
func TestLifecycleParity(t *testing.T) {
	fs := errfs.New()
	st, err := stable.Open("mss/p000", 0, 3, stable.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	mem := checkpoint.NewStableStore(0)

	step := func(name string, f func(checkpoint.Store) error) {
		t.Helper()
		ge, we := f(st), f(mem)
		if (ge == nil) != (we == nil) {
			t.Fatalf("%s: durable err %v, memory err %v", name, ge, we)
		}
		sameState(t, st, mem)
	}

	t1 := protocol.Trigger{Pid: 1, Inum: 1}
	t2 := protocol.Trigger{Pid: 2, Inum: 1}
	step("save t1", func(s checkpoint.Store) error { return s.SaveTentative(state(0, 3, 1), t1, time.Second) })
	step("dup t1", func(s checkpoint.Store) error { return s.SaveTentative(state(0, 3, 1), t1, time.Second) })
	step("save t2", func(s checkpoint.Store) error { return s.SaveTentative(state(0, 3, 1), t2, 2*time.Second) })
	step("commit t1", func(s checkpoint.Store) error { return s.MakePermanent(t1, 3*time.Second) })
	step("drop t2", func(s checkpoint.Store) error { return s.DropTentative(t2) })
	step("commit ghost", func(s checkpoint.Store) error { return s.MakePermanent(t2, 0) })
	step("drop ghost", func(s checkpoint.Store) error { return s.DropTentative(t2) })
	step("save t2 again", func(s checkpoint.Store) error { return s.SaveTentative(state(0, 3, 2), t2, 4*time.Second) })
	step("commit t2", func(s checkpoint.Store) error { return s.MakePermanent(t2, 5*time.Second) })
}

func TestReopenRestoresEverything(t *testing.T) {
	fs := errfs.New()
	dir := "mss/p000"
	st, err := stable.Open(dir, 0, 3, stable.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	t1 := protocol.Trigger{Pid: 0, Inum: 1}
	t2 := protocol.Trigger{Pid: 1, Inum: 7}
	if err := st.SaveTentative(state(0, 3, 1), t1, time.Second); err != nil {
		t.Fatal(err)
	}
	if err := st.MakePermanent(t1, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := st.SaveTentative(state(0, 3, 2), t2, 3*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.SaveTentative(state(0, 3, 3), t2, 0); !errors.Is(err, stable.ErrClosed) {
		t.Fatalf("mutation after close: %v", err)
	}

	re, err := stable.Open(dir, 0, 3, stable.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	sameState(t, re, st)
	if re.Metrics().ReplayedRecords == 0 {
		t.Fatal("reopen replayed nothing")
	}
	// The reopened store must be fully usable: finish the pending commit.
	if err := re.MakePermanent(t2, 4*time.Second); err != nil {
		t.Fatalf("commit after reopen: %v", err)
	}
	if re.Permanent().State.CSN != 2 {
		t.Fatalf("permanent CSN = %d", re.Permanent().State.CSN)
	}
}

// TestTornTailTruncated cuts the last segment mid-frame (what a crashed
// append leaves behind) and checks reopen truncates exactly the damage.
func TestTornTailTruncated(t *testing.T) {
	fs := errfs.New()
	dir := "mss/p000"
	st, err := stable.Open(dir, 0, 2, stable.Options{FS: fs, Sync: stable.SyncOnCommit})
	if err != nil {
		t.Fatal(err)
	}
	t1 := protocol.Trigger{Pid: 0, Inum: 1}
	if err := st.SaveTentative(state(0, 2, 1), t1, time.Second); err != nil {
		t.Fatal(err)
	}
	if err := st.MakePermanent(t1, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	seg := st.Segments()[len(st.Segments())-1]
	st.Close()

	// Cut three bytes off the commit record's tail.
	data, ok := fs.FileData(seg)
	if !ok {
		t.Fatalf("segment %s missing", seg)
	}
	if err := fs.Truncate(seg, int64(len(data)-3)); err != nil {
		t.Fatal(err)
	}

	re, err := stable.Open(dir, 0, 2, stable.Options{FS: fs})
	if err != nil {
		t.Fatalf("open with torn tail: %v", err)
	}
	defer re.Close()
	// The commit was the torn record: the tentative must still be pending
	// and the permanent must be the seed.
	if re.Permanent().State.CSN != 0 {
		t.Fatalf("permanent CSN = %d, want 0 (torn commit must not surface)", re.Permanent().State.CSN)
	}
	if _, ok := re.Tentative(t1); !ok {
		t.Fatal("tentative lost with the torn tail")
	}
	if re.Metrics().TruncatedBytes == 0 {
		t.Fatal("no truncation recorded")
	}
	// The torn bytes must be gone from disk, not just skipped: a fresh
	// append right after must decode cleanly on the next open.
	if err := re.MakePermanent(t1, 3*time.Second); err != nil {
		t.Fatal(err)
	}
	re.Close()
	re2, err := stable.Open(dir, 0, 2, stable.Options{FS: fs})
	if err != nil {
		t.Fatalf("open after post-truncation append: %v", err)
	}
	defer re2.Close()
	if re2.Permanent().State.CSN != 1 {
		t.Fatalf("permanent CSN after recommit = %d", re2.Permanent().State.CSN)
	}
}

// foreignFrame is an intact record frame of a format version this build
// does not write: what another build's log holds.
func foreignFrame() []byte {
	body := []byte{0xFF, 0}
	frame := binary.BigEndian.AppendUint32(nil, uint32(len(body)))
	frame = binary.BigEndian.AppendUint32(frame, crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
	return append(frame, body...)
}

// TestForeignFormatFailsOpen ends the last segment with an intact record
// of another format version. That is not a torn tail: open must name the
// mismatch and leave the file as it found it, not truncate it away.
func TestForeignFormatFailsOpen(t *testing.T) {
	fs := errfs.New()
	dir := "mss/p000"
	st, err := stable.Open(dir, 0, 2, stable.Options{FS: fs, Sync: stable.SyncOnCommit})
	if err != nil {
		t.Fatal(err)
	}
	seg := st.Segments()[len(st.Segments())-1]
	st.Close()
	f, err := fs.OpenAppend(seg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(foreignFrame()); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, _ := fs.FileData(seg)

	if _, err := stable.Open(dir, 0, 2, stable.Options{FS: fs}); !errors.Is(err, wire.ErrFormatVersion) {
		t.Fatalf("open over a foreign record: got %v, want ErrFormatVersion", err)
	}
	if after, _ := fs.FileData(seg); len(after) != len(before) {
		t.Fatalf("open changed %s from %d to %d bytes", seg, len(before), len(after))
	}
}

// TestMidLogCorruptionFailsOpen flips a bit in a non-final segment: that
// is silent media corruption, not a crash artifact, and open must refuse
// rather than resurrect a wrong state.
func TestMidLogCorruptionFailsOpen(t *testing.T) {
	fs := errfs.New()
	dir := "mss/p000"
	// Tiny segments force a multi-segment log without compaction.
	st, err := stable.Open(dir, 0, 2, stable.Options{FS: fs, SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		trig := protocol.Trigger{Pid: 0, Inum: i}
		if err := st.SaveTentative(state(0, 2, i), trig, 0); err != nil {
			t.Fatal(err)
		}
		if err := st.MakePermanent(trig, 0); err != nil {
			t.Fatal(err)
		}
	}
	segs := st.Segments()
	if len(segs) < 2 {
		t.Fatalf("expected multiple segments, got %v", segs)
	}
	st.Close()

	// Flip a bit inside the body of a record in the second segment (the
	// first segment holds the snapshot replay starts from; damage there
	// would just shift the replay start).
	if err := fs.CorruptByte(segs[1], 10); err != nil {
		t.Fatal(err)
	}
	if _, err := stable.Open(dir, 0, 2, stable.Options{FS: fs, SegmentBytes: 1}); err == nil {
		t.Fatal("open accepted mid-log corruption")
	}
}

// TestCompactionDiscardRule: with Keep=1 every commit garbage-collects
// the superseded permanent from memory AND from disk.
func TestCompactionDiscardRule(t *testing.T) {
	fs := errfs.New()
	dir := "mss/p000"
	st, err := stable.Open(dir, 0, 2, stable.Options{FS: fs, Keep: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		trig := protocol.Trigger{Pid: 0, Inum: i}
		if err := st.SaveTentative(state(0, 2, i), trig, 0); err != nil {
			t.Fatal(err)
		}
		if err := st.MakePermanent(trig, 0); err != nil {
			t.Fatal(err)
		}
		if got := len(st.History()); got != 1 {
			t.Fatalf("after commit %d: history = %d, want 1", i, got)
		}
	}
	if st.Metrics().Compactions != 4 {
		t.Fatalf("compactions = %d, want 4", st.Metrics().Compactions)
	}
	if segs := st.Segments(); len(segs) != 1 {
		t.Fatalf("segments after compaction = %v", segs)
	}
	// The superseded segments are really gone from the directory.
	names, err := fs.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 {
		t.Fatalf("files on disk = %v, want 1 segment", names)
	}
	st.Close()

	re, err := stable.Open(dir, 0, 2, stable.Options{FS: fs, Keep: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Permanent().State.CSN != 4 || len(re.History()) != 1 {
		t.Fatalf("reopened: perm CSN %d history %d", re.Permanent().State.CSN, len(re.History()))
	}
}

// TestCompactionPreservesTentatives: a pending tentative must ride the
// snapshot through a compaction and still be committable after reopen.
func TestCompactionPreservesTentatives(t *testing.T) {
	fs := errfs.New()
	dir := "mss/p000"
	st, err := stable.Open(dir, 0, 2, stable.Options{FS: fs, Keep: 1})
	if err != nil {
		t.Fatal(err)
	}
	pending := protocol.Trigger{Pid: 1, Inum: 9}
	if err := st.SaveTentative(state(0, 2, 2), pending, time.Second); err != nil {
		t.Fatal(err)
	}
	commit := protocol.Trigger{Pid: 0, Inum: 1}
	if err := st.SaveTentative(state(0, 2, 1), commit, 0); err != nil {
		t.Fatal(err)
	}
	if err := st.MakePermanent(commit, 0); err != nil { // triggers compaction
		t.Fatal(err)
	}
	st.Close()

	re, err := stable.Open(dir, 0, 2, stable.Options{FS: fs, Keep: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if _, ok := re.Tentative(pending); !ok {
		t.Fatal("pending tentative lost across compaction + reopen")
	}
	if err := re.MakePermanent(pending, 2*time.Second); err != nil {
		t.Fatalf("commit of compaction-surviving tentative: %v", err)
	}
	if re.Permanent().State.CSN != 2 {
		t.Fatalf("permanent CSN = %d", re.Permanent().State.CSN)
	}
}

func TestSegmentRolling(t *testing.T) {
	fs := errfs.New()
	dir := "mss/p000"
	st, err := stable.Open(dir, 0, 2, stable.Options{FS: fs, SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		trig := protocol.Trigger{Pid: 0, Inum: i}
		if err := st.SaveTentative(state(0, 2, i), trig, 0); err != nil {
			t.Fatal(err)
		}
		if err := st.MakePermanent(trig, 0); err != nil {
			t.Fatal(err)
		}
	}
	if len(st.Segments()) < 5 {
		t.Fatalf("segments = %v, expected one per append beyond the first", st.Segments())
	}
	st.Close()
	re, err := stable.Open(dir, 0, 2, stable.Options{FS: fs, SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Permanent().State.CSN != 5 || len(re.History()) != 6 {
		t.Fatalf("reopened: perm %d history %d", re.Permanent().State.CSN, len(re.History()))
	}
}

// TestSyncPolicyMetrics: under SyncOnCommit a tentative save rides the
// commit's fsync, so a save and its commit cost one fsync; SyncNever
// costs none.
func TestSyncPolicyMetrics(t *testing.T) {
	run := func(p stable.SyncPolicy) (save, commit uint64) {
		st, err := stable.Open("mss/p000", 0, 2, stable.Options{FS: errfs.New(), Sync: p})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		trig := protocol.Trigger{Pid: 0, Inum: 1}
		opened := st.Metrics().Syncs
		if err := st.SaveTentative(state(0, 2, 1), trig, 0); err != nil {
			t.Fatal(err)
		}
		saved := st.Metrics().Syncs
		if err := st.MakePermanent(trig, 0); err != nil {
			t.Fatal(err)
		}
		return saved - opened, st.Metrics().Syncs - saved
	}
	if save, commit := run(stable.SyncNever); save+commit != 0 {
		t.Fatalf("SyncNever synced %d times", save+commit)
	}
	if save, commit := run(stable.SyncOnCommit); save != 0 || commit != 1 {
		t.Fatalf("SyncOnCommit: save synced %d times, commit %d, want 0 and 1", save, commit)
	}
}

// TestFsyncFailurePoisons: after a failed fsync nothing about the disk
// state can be trusted, so the store must refuse all further mutations
// until it is reopened (the post-fsyncgate contract).
func TestFsyncFailurePoisons(t *testing.T) {
	fs := errfs.New()
	dir := "mss/p000"
	st, err := stable.Open(dir, 0, 2, stable.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	t1 := protocol.Trigger{Pid: 0, Inum: 1}
	if err := st.SaveTentative(state(0, 2, 1), t1, 0); err != nil {
		t.Fatal(err)
	}
	fs.SetHook(func(op errfs.Op, path string) errfs.Fault {
		if op == errfs.OpSync {
			return errfs.FaultErr
		}
		return errfs.FaultNone
	})
	if err := st.MakePermanent(t1, 0); !errors.Is(err, errfs.ErrInjected) {
		t.Fatalf("commit with failing fsync: %v", err)
	}
	fs.SetHook(nil)
	if st.Broken() == nil {
		t.Fatal("store not poisoned")
	}
	if err := st.SaveTentative(state(0, 2, 2), protocol.Trigger{Pid: 1, Inum: 1}, 0); err == nil {
		t.Fatal("poisoned store accepted a mutation")
	}
	st.Close()

	// Reopen is the recovery path: it must succeed and be internally
	// consistent (commit either fully visible or fully absent).
	re, err := stable.Open(dir, 0, 2, stable.Options{FS: fs})
	if err != nil {
		t.Fatalf("reopen after poison: %v", err)
	}
	defer re.Close()
	if csn := re.Permanent().State.CSN; csn != 0 && csn != 1 {
		t.Fatalf("reopened permanent CSN = %d", csn)
	}
	if err := re.SaveTentative(state(0, 2, 5), protocol.Trigger{Pid: 1, Inum: 2}, 0); err != nil {
		t.Fatalf("reopened store unusable: %v", err)
	}
}

// TestRealDisk runs the round-trip on the actual filesystem, covering
// the osFS implementation end to end.
func TestRealDisk(t *testing.T) {
	root := t.TempDir()
	dir := stable.ProcDir(root, 2)
	if want := filepath.Join(root, "p002"); dir != want {
		t.Fatalf("ProcDir = %s, want %s", dir, want)
	}
	st, err := stable.Open(dir, 2, 4, stable.Options{Keep: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		trig := protocol.Trigger{Pid: 2, Inum: i}
		if err := st.SaveTentative(state(2, 4, i), trig, time.Duration(i)*time.Second); err != nil {
			t.Fatal(err)
		}
		if err := st.MakePermanent(trig, time.Duration(i)*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	pending := protocol.Trigger{Pid: 3, Inum: 1}
	if err := st.SaveTentative(state(2, 4, 4), pending, 0); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := stable.Open(dir, 2, 4, stable.Options{Keep: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Permanent().State.CSN != 3 || len(re.History()) != 1 {
		t.Fatalf("reopened: perm %d history %d", re.Permanent().State.CSN, len(re.History()))
	}
	if _, ok := re.Tentative(pending); !ok {
		t.Fatal("pending tentative lost on real disk")
	}
}

package stable_test

import (
	"bytes"
	"errors"
	"io"
	"slices"
	"testing"

	"mutablecp/internal/protocol"
	"mutablecp/internal/stable"
	"mutablecp/internal/stable/errfs"
	"mutablecp/internal/wire"
)

// fiveCommits leaves a closed store holding five acknowledged commits.
func fiveCommits(t *testing.T, fs *errfs.MemFS, dir string) {
	t.Helper()
	st, err := stable.Open(dir, 0, 2, stable.Options{FS: fs})
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
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenIOErrorModifiesNothing: a disk that fails while the log is
// being read has said nothing about what the log holds. The open must
// fail with the disk's error — not answer it with the truncation a torn
// tail gets, which used to cut acknowledged commits — and leave the image
// byte-identical, so that a healthy reopen still finds all five commits.
func TestOpenIOErrorModifiesNothing(t *testing.T) {
	eio := errors.New("input/output error")
	for name, wrap := range map[string]func(*errfs.MemFS) stable.FS{
		"read fails after 150 bytes": func(fs *errfs.MemFS) stable.FS { return errfs.ReadFault(fs, 150, eio) },
		"open fails": func(fs *errfs.MemFS) stable.FS {
			fs.SetHook(func(op errfs.Op, _ string) errfs.Fault {
				if op == errfs.OpOpen {
					return errfs.FaultErr
				}
				return errfs.FaultNone
			})
			return fs
		},
	} {
		t.Run(name, func(t *testing.T) {
			fs, dir := errfs.New(), "mss/p000"
			fiveCommits(t, fs, dir)
			before := fs.Snapshot()
			_, err := stable.Open(dir, 0, 2, stable.Options{FS: wrap(fs)})
			fs.SetHook(nil)
			if err == nil || errors.Is(err, wire.ErrTornRecord) || errors.Is(err, wire.ErrCorruptRecord) {
				t.Fatalf("open on a failing disk: %v, want its I/O error", err)
			}
			if !errors.Is(err, eio) && !errors.Is(err, errfs.ErrInjected) {
				t.Fatalf("open on a failing disk lost the cause: %v", err)
			}
			if !bytes.Equal(before, fs.Snapshot()) {
				t.Fatal("the failed open modified the disk")
			}
			re, err := stable.Open(dir, 0, 2, stable.Options{FS: fs})
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if csn := re.Permanent().State.CSN; csn != 5 || len(re.History()) != 6 {
				t.Fatalf("healthy reopen: permanent CSN %d, history %d", csn, len(re.History()))
			}
		})
	}
}

// TestSegmentLayout pins what the store leaves on disk to what it has
// always left there: a fixed script of saves, commits, forced rolls and a
// compaction produces these segment names, and the compaction leaves
// exactly one segment, headed by a snapshot record.
func TestSegmentLayout(t *testing.T) {
	fs, dir := errfs.New(), "mss/p000"
	st, err := stable.Open(dir, 0, 2, stable.Options{FS: fs, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 1; i <= 3; i++ {
		trig := protocol.Trigger{Pid: 0, Inum: i}
		if err := st.SaveTentative(state(0, 2, i), trig, 0); err != nil {
			t.Fatal(err)
		}
		if err := st.MakePermanent(trig, 0); err != nil {
			t.Fatal(err)
		}
	}
	segs := func() []string {
		names, err := fs.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if live := st.Segments(); len(live) != len(names) {
			t.Fatalf("Segments() = %v, directory holds %v", live, names)
		}
		return names
	}
	want := []string{"seg-00000001.log", "seg-00000002.log", "seg-00000003.log", "seg-00000004.log"}
	if got := segs(); !slices.Equal(got, want) {
		t.Fatalf("segments before compaction = %v, want %v", got, want)
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := segs(); !slices.Equal(got, []string{"seg-00000005.log"}) {
		t.Fatalf("segments after compaction = %v", got)
	}
	f, err := fs.Open(dir + "/seg-00000005.log")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rec, _, err := wire.DecodeStableRecord(f)
	if err != nil || rec.Op != wire.OpSnapshot || len(rec.Permanent) != 4 {
		t.Fatalf("head of the compacted segment: %+v, %v", rec, err)
	}
	if _, _, err := wire.DecodeStableRecord(f); err != io.EOF {
		t.Fatalf("the compacted segment holds more than the snapshot: %v", err)
	}
}

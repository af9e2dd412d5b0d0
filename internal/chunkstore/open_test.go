package chunkstore

import (
	"bytes"
	"errors"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"mutablecp/internal/seglog"
	"mutablecp/internal/stable/errfs"
	"mutablecp/internal/wire"
)

// TestOpenIOErrorModifiesNothing: a disk that fails while the chunk log
// is being read has said nothing about what the log holds. A failed
// FS.Open used to read as "not a boundary", no boundary as "debris of a
// crashed initialization", and the acknowledged payload was wiped. The
// open must fail with the disk's error and leave the image
// byte-identical, so that a healthy reopen still materializes the payload.
func TestOpenIOErrorModifiesNothing(t *testing.T) {
	eio := errors.New("input/output error")
	for name, wrap := range map[string]func(*errfs.MemFS) seglog.FS{
		"every open fails": func(fs *errfs.MemFS) seglog.FS {
			fs.SetHook(func(op errfs.Op, _ string) errfs.Fault {
				if op == errfs.OpOpen {
					return errfs.FaultErr
				}
				return errfs.FaultNone
			})
			return fs
		},
		"read fails in the boundary":  func(fs *errfs.MemFS) seglog.FS { return errfs.ReadFault(fs, 4, eio) },
		"read fails after 5000 bytes": func(fs *errfs.MemFS) seglog.FS { return errfs.ReadFault(fs, 5000, eio) },
	} {
		t.Run(name, func(t *testing.T) {
			fs := errfs.New()
			s, err := Open("cs", testOpts(fs))
			if err != nil {
				t.Fatal(err)
			}
			img := randImage(rand.New(rand.NewSource(11)), 16<<10)
			if _, err := s.PutTentative(0, trig(0, 1), 0, img); err != nil {
				t.Fatal(err)
			}
			if err := s.CommitTentative(0, trig(0, 1), 0); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			before := fs.Snapshot()

			opts := testOpts(fs)
			opts.FS = wrap(fs)
			_, err = Open("cs", opts)
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
			re, err := Open("cs", testOpts(fs))
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			got, ok, err := re.Materialize(0)
			if err != nil || !ok || !bytes.Equal(got, img) {
				t.Fatalf("healthy reopen: ok=%v err=%v", ok, err)
			}
		})
	}
}

// TestSegmentLayout pins what the store leaves on disk to what it has
// always left there: a fixed script of saves and commits that rolls,
// then a compaction, produces these chk- names, and the compaction leaves
// the rewrite segments followed by one segment headed by a reset record
// that names the first of them.
func TestSegmentLayout(t *testing.T) {
	fs := errfs.New()
	// 1 KiB chunks, 16 KiB segments, Keep 2: the third commit leaves a
	// third of the payload bytes garbage, below the 0.5 that compacts.
	s, err := Open("cs", testOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(12))
	for i := 1; i <= 3; i++ {
		if _, err := s.PutTentative(0, trig(0, i), 0, randImage(rng, 20<<10)); err != nil {
			t.Fatal(err)
		}
		if err := s.CommitTentative(0, trig(0, i), 0); err != nil {
			t.Fatal(err)
		}
	}
	segs := func() []string {
		names, err := fs.ReadDir("cs")
		if err != nil {
			t.Fatal(err)
		}
		live := s.log.Segments()
		if len(live) != len(names) {
			t.Fatalf("live segments %v, directory holds %v", live, names)
		}
		for i := range live {
			if filepath.Base(live[i]) != names[i] {
				t.Fatalf("live segments %v, directory holds %v", live, names)
			}
		}
		return names
	}
	head := func(name string) *wire.ChunkRecord {
		f, err := fs.Open("cs/" + name)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		rec, _, err := wire.DecodeChunkRecord(f)
		if err != nil {
			t.Fatalf("head of %s: %v", name, err)
		}
		return rec
	}
	want := []string{"chk-00000001.log", "chk-00000002.log", "chk-00000003.log", "chk-00000004.log", "chk-00000005.log"}
	if got := segs(); !slices.Equal(got, want) {
		t.Fatalf("segments before compaction = %v, want %v", got, want)
	}
	if rec := head(want[0]); rec.Op != wire.ChunkOpReset || rec.Length != 1 {
		t.Fatalf("head of the first segment: %+v", rec)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	// Keep 2 retains 40 KiB of chunks: three rewrite segments, then the
	// boundary's.
	want = []string{"chk-00000006.log", "chk-00000007.log", "chk-00000008.log", "chk-00000009.log"}
	got := segs()
	if !slices.Equal(got, want) {
		t.Fatalf("segments after compaction = %v, want %v", got, want)
	}
	for _, name := range got[:len(got)-1] {
		if rec := head(name); rec.Op != wire.ChunkOpPut {
			t.Fatalf("rewrite segment %s opens with %v", name, rec.Op)
		}
	}
	if rec := head(got[len(got)-1]); rec.Op != wire.ChunkOpReset || rec.Length != 6 {
		t.Fatalf("head of the boundary segment: %+v", rec)
	}
}

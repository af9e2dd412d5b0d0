package chunkstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"strings"
	"testing"
	"time"

	"mutablecp/internal/protocol"
	"mutablecp/internal/stable/errfs"
	"mutablecp/internal/wire"
)

func trig(pid, inum int) protocol.Trigger {
	return protocol.Trigger{Pid: protocol.ProcessID(pid), Inum: inum}
}

func testOpts(fs *errfs.MemFS) Options {
	return Options{FS: fs, ChunkBytes: 1 << 10, SegmentBytes: 16 << 10, Keep: 2}
}

func randImage(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// mutate flips a few chunks of the image in place, returning a copy.
func mutate(rng *rand.Rand, img []byte, chunkBytes, dirty int) []byte {
	out := append([]byte(nil), img...)
	chunks := (len(out) + chunkBytes - 1) / chunkBytes
	for i := 0; i < dirty; i++ {
		c := rng.Intn(chunks)
		off := c * chunkBytes
		out[off] ^= byte(1 + rng.Intn(255))
	}
	return out
}

func TestSaveCommitMaterialize(t *testing.T) {
	fs := errfs.New()
	s, err := Open("cs", testOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	img := randImage(rng, 10<<10)
	r, err := s.PutTentative(0, trig(0, 1), time.Second, img)
	if err != nil {
		t.Fatal(err)
	}
	if r.Chunks != 10 || r.NewChunks != 10 || r.DedupChunks != 0 {
		t.Fatalf("first save receipt: %+v", r)
	}
	if r.LogicalBytes != 10<<10 || r.NewBytes <= r.LogicalBytes {
		t.Fatalf("first save bytes: %+v", r)
	}
	if _, ok, _ := s.Materialize(0); ok {
		t.Fatal("permanent payload before commit")
	}
	if err := s.CommitTentative(0, trig(0, 1), 2*time.Second); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Materialize(0)
	if err != nil || !ok {
		t.Fatalf("materialize: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(got, img) {
		t.Fatal("materialized image differs")
	}
	if err := s.Verify(0); err != nil {
		t.Fatal(err)
	}
}

// TestForeignFormatFailsOpen puts an intact record the store cannot
// apply where recovery would otherwise see debris: at the tail of the
// last segment (a torn tail is truncated) and at the head of the only
// segment (a store with no boundary is wiped and started again). Two such
// records: one of another format version, and a valid-CRC patch record
// (wire.ChunkOpDelta) of the removed delta storage mode. Every open must
// name what it refused, must not report the record as corrupt (which
// would cut it), and must leave the file byte-identical.
func TestForeignFormatFailsOpen(t *testing.T) {
	body := []byte{0xFF, 0}
	foreign := binary.BigEndian.AppendUint32(nil, uint32(len(body)))
	foreign = binary.BigEndian.AppendUint32(foreign, crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
	foreign = append(foreign, body...)
	delta, err := wire.AppendChunkRecord(nil, &wire.ChunkRecord{
		Op: wire.ChunkOpDelta, Hash: HashChunk([]byte("next")), Base: HashChunk([]byte("base")),
		Payload: []byte{4, 0, 1, 'n'},
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, in := range []struct {
		name  string
		frame []byte
		check func(error) bool
	}{
		{"format version", foreign, func(err error) bool { return errors.Is(err, wire.ErrFormatVersion) }},
		{"delta op", delta, func(err error) bool {
			return err != nil && strings.Contains(err.Error(), wire.ChunkOpDelta.String()) &&
				!errors.Is(err, wire.ErrCorruptRecord) && !errors.Is(err, wire.ErrTornRecord)
		}},
	} {
		for _, where := range []string{"tail", "head"} {
			fs := errfs.New()
			s, err := Open("cs", testOpts(fs))
			if err != nil {
				t.Fatal(err)
			}
			seg := s.log.Segments()[len(s.log.Segments())-1]
			s.Close()
			if where == "head" {
				if err := fs.Truncate(seg, 0); err != nil {
					t.Fatal(err)
				}
			}
			f, err := fs.OpenAppend(seg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(in.frame); err != nil {
				t.Fatal(err)
			}
			f.Close()
			before, _ := fs.FileData(seg)

			if _, err := Open("cs", testOpts(fs)); !in.check(err) {
				t.Fatalf("%s at %s: open got %v", in.name, where, err)
			}
			if after, ok := fs.FileData(seg); !ok || !bytes.Equal(after, before) {
				t.Fatalf("%s at %s: open changed %s from %d to %d bytes", in.name, where, seg, len(before), len(after))
			}
		}
	}
}

func TestIncrementalDedup(t *testing.T) {
	fs := errfs.New()
	s, err := Open("cs", testOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	img := randImage(rng, 32<<10)
	if _, err := s.PutTentative(0, trig(0, 1), 0, img); err != nil {
		t.Fatal(err)
	}
	if err := s.CommitTentative(0, trig(0, 1), 0); err != nil {
		t.Fatal(err)
	}
	// Dirty 2 of 32 chunks: the second save must write ~2 chunks.
	img2 := mutate(rng, img, 1<<10, 2)
	r, err := s.PutTentative(0, trig(0, 2), 0, img2)
	if err != nil {
		t.Fatal(err)
	}
	if r.NewChunks > 2 || r.DedupChunks < 30 {
		t.Fatalf("incremental receipt: %+v", r)
	}
	if r.NewBytes >= uint64(len(img2))/4 {
		t.Fatalf("incremental wrote %d bytes for a %d byte image", r.NewBytes, len(img2))
	}
	if err := s.CommitTentative(0, trig(0, 2), 0); err != nil {
		t.Fatal(err)
	}
	got, _, err := s.Materialize(0)
	if err != nil || !bytes.Equal(got, img2) {
		t.Fatalf("materialize after incremental: %v", err)
	}
}

func TestDropReleasesAndReopenAgrees(t *testing.T) {
	fs := errfs.New()
	s, err := Open("cs", testOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	img := randImage(rng, 8<<10)
	if _, err := s.PutTentative(1, trig(1, 1), 0, img); err != nil {
		t.Fatal(err)
	}
	if err := s.CommitTentative(1, trig(1, 1), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutTentative(1, trig(1, 2), 0, randImage(rng, 8<<10)); err != nil {
		t.Fatal(err)
	}
	if err := s.DropTentative(1, trig(1, 2)); err != nil {
		t.Fatal(err)
	}
	if got := s.TentativeTriggers(1); len(got) != 0 {
		t.Fatalf("tentatives after drop: %v", got)
	}
	st := s.Stats()
	if st.GarbageBytes() <= 0 {
		t.Fatalf("dropped chunks not garbage: %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen: the dropped tentative must not resurface; the permanent
	// must materialize.
	s2, err := Open("cs", testOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.TentativeTriggers(1); len(got) != 0 {
		t.Fatalf("tentatives after reopen: %v", got)
	}
	got, ok, err := s2.Materialize(1)
	if err != nil || !ok || !bytes.Equal(got, img) {
		t.Fatalf("reopen materialize: ok=%v err=%v", ok, err)
	}
	if err := s2.Verify(1); err != nil {
		t.Fatal(err)
	}
}

func TestCompactionReclaimsGarbage(t *testing.T) {
	fs := errfs.New()
	opts := testOpts(fs)
	opts.Keep = 1
	s, err := Open("cs", opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	img := randImage(rng, 16<<10)
	for i := 1; i <= 8; i++ {
		img = mutate(rng, img, 1<<10, 8) // half the chunks change each time
		if _, err := s.PutTentative(0, trig(0, i), 0, img); err != nil {
			t.Fatal(err)
		}
		if err := s.CommitTentative(0, trig(0, i), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.GarbageBytes() != 0 {
		t.Fatalf("garbage after compaction: %+v", st)
	}
	if st.Compactions == 0 {
		t.Fatal("no compaction counted")
	}
	got, _, err := s.Materialize(0)
	if err != nil || !bytes.Equal(got, img) {
		t.Fatalf("materialize after compaction: %v", err)
	}
	// Reopen across the compaction boundary.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open("cs", opts)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err = s2.Materialize(0)
	if err != nil || !bytes.Equal(got, img) {
		t.Fatalf("materialize after reopen over compaction: %v", err)
	}
	if err := s2.Verify(0); err != nil {
		t.Fatal(err)
	}
}

func TestRetentionBoundsHistory(t *testing.T) {
	fs := errfs.New()
	opts := testOpts(fs)
	opts.Keep = 2
	s, err := Open("cs", opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 1; i <= 5; i++ {
		if _, err := s.PutTentative(0, trig(0, i), time.Duration(i), randImage(rng, 4<<10)); err != nil {
			t.Fatal(err)
		}
		if err := s.CommitTentative(0, trig(0, i), time.Duration(i)); err != nil {
			t.Fatal(err)
		}
	}
	if h := s.History(0); len(h) != 2 {
		t.Fatalf("retained %d manifests, want 2", len(h))
	}
	if m, ok := s.Permanent(0); !ok || m.Trigger != trig(0, 5) {
		t.Fatalf("newest permanent: %+v ok=%v", m, ok)
	}
}

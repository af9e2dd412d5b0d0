package chunkstore

// A save hashes only the chunks that differ from the image the process
// saved last, and reuses the other hashes. That must be invisible: the
// disk bytes and the counters are those of hashing every chunk, and every
// manifest names exactly the chunks of the image it was handed.

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"mutablecp/internal/protocol"
	"mutablecp/internal/seglog"
	"mutablecp/internal/stable/errfs"
	"mutablecp/internal/workload"
)

// pipelineWorkload drives a deterministic multi-process save/commit/drop
// mix with self- and cross-process duplicate content.
func pipelineWorkload(t *testing.T, save func(proc protocol.ProcessID, trig protocol.Trigger, at time.Duration, image []byte) error,
	commit func(proc protocol.ProcessID, trig protocol.Trigger, at time.Duration) error,
	drop func(proc protocol.ProcessID, trig protocol.Trigger) error) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	shared := randImage(rng, 8<<10) // cross-process duplicate content
	images := map[protocol.ProcessID][]byte{
		0: append(append([]byte(nil), shared...), randImage(rng, 4<<10)...),
		1: append(append([]byte(nil), shared...), randImage(rng, 6<<10)...),
		2: randImage(rng, 12<<10),
	}
	at := time.Second
	for iter := 0; iter < 4; iter++ {
		for proc := protocol.ProcessID(0); proc < 3; proc++ {
			img := images[proc]
			tr := trig(int(proc), iter+1)
			at += time.Second
			if err := save(proc, tr, at, img); err != nil {
				t.Fatalf("save P%d %+v: %v", proc, tr, err)
			}
			if iter == 2 {
				if err := drop(proc, tr); err != nil {
					t.Fatalf("drop P%d %+v: %v", proc, tr, err)
				}
			} else {
				at += time.Second
				if err := commit(proc, tr, at); err != nil {
					t.Fatalf("commit P%d %+v: %v", proc, tr, err)
				}
			}
			// Mutate a few chunks so later saves mix dedup and new chunks.
			images[proc] = mutate(rng, img, 1<<10, 3)
		}
	}
}

// TestSavesMatchFullHashing pins the disk image and the counters of
// pipelineWorkload to what the store wrote when every save hashed every
// chunk, one SHA-256 worker and one write per record.
func TestSavesMatchFullHashing(t *testing.T) {
	fs := errfs.New()
	s, err := Open("cs", testOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	pipelineWorkload(t,
		func(p protocol.ProcessID, tr protocol.Trigger, at time.Duration, img []byte) error {
			_, err := s.PutTentative(p, tr, at, img)
			return err
		},
		s.CommitTentative, s.DropTentative)
	st := s.Stats()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if st.SelfDedupChunks == 0 || st.CrossDedupChunks == 0 {
		t.Fatalf("workload must exercise both dedup classes: self=%d cross=%d", st.SelfDedupChunks, st.CrossDedupChunks)
	}
	const digest = "d3e8f5f71459dbf377e9f70cbd3438d9ab0ad8f4268b1ef514f4c9461eb943b5"
	if got := fmt.Sprintf("%x", sha256.Sum256(fs.Snapshot())); got != digest {
		t.Errorf("disk image digest %s, want %s", got, digest)
	}
	want := Stats{
		Segments: 5, Chunks: 55, LiveChunks: 46, LiveBytes: 47104, DiskBytes: 56320,
		Permanents: 6, Tentatives: 0,
		Saves: 12, LogicalBytes: 0x26000, NewBytes: 0xf33a, NewChunks: 0x37,
		DedupChunks: 0x61, SelfDedupChunks: 0x47, CrossDedupChunks: 0x1a,
		Metrics: seglog.Metrics{Appends: 0x50, AppendedBytes: 0x109a4, Syncs: 0x14},
	}
	if st != want {
		t.Errorf("stats differ from full hashing:\n got %+v\nwant %+v", st, want)
	}
}

// TestHashReuseFollowsTheImage saves a sequence built to trip a stale
// hash: a caller that rewrites one buffer in place between saves, images
// that grow by part of a chunk and shrink, a restore that swaps in an
// older image, dropped tentatives and reopens that forget the kept copy.
// After every save each manifest hash must be HashChunk of the image's
// chunk, and the manifest must materialize the image byte for byte.
func TestHashReuseFollowsTheImage(t *testing.T) {
	const chunk = 1 << 10
	fs := errfs.New()
	opts := testOpts(fs)
	s, err := Open("cs", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.Close() }()
	rng := rand.New(rand.NewSource(7))
	grow := workload.NewImages(workload.ImagesConfig{
		Procs: 1, Bytes: 5*chunk + chunk/3, PageBytes: chunk, Profile: workload.ProfileAppend, Seed: 7,
	})
	buf := randImage(rng, 6*chunk) // P0 reuses this buffer for every save
	var committed [][]byte         // P0's committed images, oldest first
	saves := map[string]int{}
	check := func(proc protocol.ProcessID, tr protocol.Trigger, img []byte, what string) {
		t.Helper()
		m := s.tent[proc][tr]
		if m == nil {
			t.Fatalf("%s: no tentative manifest", what)
		}
		parts := SplitChunks(img, chunk)
		if len(m.Hashes) != len(parts) || m.Length != int64(len(img)) {
			t.Fatalf("%s: manifest has %d hashes over %d bytes, image %d chunks over %d bytes", what, len(m.Hashes), m.Length, len(parts), len(img))
		}
		for i, part := range parts {
			if m.Hashes[i] != HashChunk(part) {
				t.Fatalf("%s: chunk %d hash is stale", what, i)
			}
		}
		got, err := s.materializeLocked(m)
		if err != nil || !bytes.Equal(got, img) {
			t.Fatalf("%s: materialized image differs (%v)", what, err)
		}
	}
	at := time.Duration(0)
	for step := 1; step <= 120; step++ {
		var what string
		switch r := rng.Intn(10); {
		case r < 3:
			what = "rewrite in place"
			for i := 0; i < 1+rng.Intn(3); i++ {
				buf[rng.Intn(len(buf))] ^= byte(1 + rng.Intn(255))
			}
		case r < 5:
			what = "resize"
			n := chunk/2 + rng.Intn(8*chunk)
			for len(buf) < n {
				buf = append(buf, byte(rng.Intn(256)))
			}
			buf = buf[:n]
		case r < 6 && len(committed) > 0:
			what = "restore"
			buf = append(buf[:0], committed[rng.Intn(len(committed))]...)
		case r < 7:
			what = "reopen"
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if s, err = Open("cs", opts); err != nil {
				t.Fatal(err)
			}
		default:
			what = "no change"
		}
		saves[what]++
		at += time.Second
		tr := trig(0, step)
		if _, err := s.PutTentative(0, tr, at, buf); err != nil {
			t.Fatalf("step %d (%s): save: %v", step, what, err)
		}
		check(0, tr, buf, fmt.Sprintf("step %d (%s)", step, what))
		if rng.Intn(4) == 0 {
			if err := s.DropTentative(0, tr); err != nil {
				t.Fatal(err)
			}
			saves["dropped"]++
		} else {
			if err := s.CommitTentative(0, tr, at); err != nil {
				t.Fatal(err)
			}
			committed = append(committed, append([]byte(nil), buf...))
			if got, ok, err := s.Materialize(0); err != nil || !ok || !bytes.Equal(got, buf) {
				t.Fatalf("step %d (%s): committed image does not materialize (%v)", step, what, err)
			}
		}
		// P1 grows by part of a chunk per save, from the append profile.
		img := grow.Image(0)
		tr = trig(1, step)
		if _, err := s.PutTentative(1, tr, at, img); err != nil {
			t.Fatal(err)
		}
		check(1, tr, img, fmt.Sprintf("step %d (append)", step))
		if err := s.CommitTentative(1, tr, at); err != nil {
			t.Fatal(err)
		}
	}
	for _, what := range []string{"rewrite in place", "resize", "restore", "reopen", "no change", "dropped"} {
		if saves[what] == 0 {
			t.Errorf("the sequence never covered %q", what)
		}
	}
}

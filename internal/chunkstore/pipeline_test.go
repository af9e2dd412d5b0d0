package chunkstore

// The parallel save pipeline must be invisible on disk: hashing fans
// out over a worker pool, but the records are assembled in input order,
// so every segment and every manifest must be byte-identical whatever
// the worker count.

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"mutablecp/internal/protocol"
	"mutablecp/internal/stable/errfs"
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

func runStoreWorkload(t *testing.T, workers int) ([]byte, Stats) {
	t.Helper()
	fs := errfs.New()
	opts := testOpts(fs)
	opts.workers = workers
	s, err := Open("cs", opts)
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
	return fs.Snapshot(), st
}

func TestPipelineDeterministicAcrossWorkers(t *testing.T) {
	baseImg, baseStats := runStoreWorkload(t, 1)
	if baseStats.DedupChunks == 0 || baseStats.NewChunks == 0 {
		t.Fatalf("workload not representative: %+v", baseStats)
	}
	if baseStats.SelfDedupChunks == 0 || baseStats.CrossDedupChunks == 0 {
		t.Fatalf("workload must exercise both dedup classes: self=%d cross=%d",
			baseStats.SelfDedupChunks, baseStats.CrossDedupChunks)
	}
	if baseStats.SelfDedupChunks+baseStats.CrossDedupChunks != baseStats.DedupChunks {
		t.Fatalf("dedup split does not sum: self=%d cross=%d total=%d",
			baseStats.SelfDedupChunks, baseStats.CrossDedupChunks, baseStats.DedupChunks)
	}
	for _, workers := range []int{2, 8} {
		img, st := runStoreWorkload(t, workers)
		if !bytes.Equal(img, baseImg) {
			t.Fatalf("store disk image with %d workers differs from 1 worker", workers)
		}
		if st != baseStats {
			t.Fatalf("store stats with %d workers differ:\n 1: %+v\n%2d: %+v", workers, baseStats, workers, st)
		}
	}
}

package chunkstore

// GC-vs-retention property test: drive the store through random
// save/commit/drop/compact/reopen interleavings against an in-memory
// model, and after every step require that no retained manifest — the
// permanent history bounded by Keep plus every pending tentative — has
// lost a reachable chunk to compaction: each one must still verify and
// materialize byte-identical to the image the model says it holds.

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"mutablecp/internal/protocol"
	"mutablecp/internal/stable/errfs"
)

// gcModel mirrors what the store must retain.
type gcModel struct {
	perm map[protocol.ProcessID][][]byte                    // committed images, oldest first, trimmed to Keep
	tent map[protocol.ProcessID]map[protocol.Trigger][]byte // pending images
	last map[protocol.ProcessID][]byte                      // newest image ever saved (mutation base)
	inum map[protocol.ProcessID]int
}

func newGCModel() *gcModel {
	return &gcModel{
		perm: make(map[protocol.ProcessID][][]byte),
		tent: make(map[protocol.ProcessID]map[protocol.Trigger][]byte),
		last: make(map[protocol.ProcessID][]byte),
		inum: make(map[protocol.ProcessID]int),
	}
}

// materializeManifest reassembles an arbitrary retained manifest (the
// public API only materializes the newest permanent).
func materializeManifest(s *Store, m *Manifest) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.materializeLocked(m)
}

// auditGC checks the whole store against the model.
func auditGC(t *testing.T, tag string, s *Store, model *gcModel, keep int, procs int) {
	t.Helper()
	st := s.Stats()
	if st.LiveBytes > st.DiskBytes || st.GarbageBytes() < 0 {
		t.Fatalf("%s: incoherent accounting: live %d > disk %d", tag, st.LiveBytes, st.DiskBytes)
	}
	for p := 0; p < procs; p++ {
		proc := protocol.ProcessID(p)
		if err := s.Verify(proc); err != nil {
			t.Fatalf("%s: P%d: retained manifest lost a chunk: %v", tag, proc, err)
		}
		hist := s.History(proc)
		want := model.perm[proc]
		if len(hist) != len(want) {
			t.Fatalf("%s: P%d: history has %d manifests, model says %d", tag, proc, len(hist), len(want))
		}
		for i, m := range hist {
			img, err := materializeManifest(s, m)
			if err != nil {
				t.Fatalf("%s: P%d history[%d] %+v: %v", tag, proc, i, m.Trigger, err)
			}
			if !bytes.Equal(img, want[i]) {
				t.Fatalf("%s: P%d history[%d] %+v materialized wrong bytes", tag, proc, i, m.Trigger)
			}
		}
		trigs := s.TentativeTriggers(proc)
		if len(trigs) != len(model.tent[proc]) {
			t.Fatalf("%s: P%d: %d tentatives, model says %d", tag, proc, len(trigs), len(model.tent[proc]))
		}
		for _, tg := range trigs {
			want, ok := model.tent[proc][tg]
			if !ok {
				t.Fatalf("%s: P%d: unknown tentative %+v", tag, proc, tg)
			}
			s.mu.Lock()
			m := s.tent[proc][tg]
			var cp *Manifest
			if m != nil {
				cp = manifestCopy(m)
			}
			s.mu.Unlock()
			if cp == nil {
				t.Fatalf("%s: P%d: tentative %+v listed but absent", tag, proc, tg)
			}
			img, err := materializeManifest(s, cp)
			if err != nil {
				t.Fatalf("%s: P%d tentative %+v: %v", tag, proc, tg, err)
			}
			if !bytes.Equal(img, want) {
				t.Fatalf("%s: P%d tentative %+v materialized wrong bytes", tag, proc, tg)
			}
		}
	}
}

// gcProperty runs one seed's schedule and returns how many compactions
// the store started on its own after a commit.
func gcProperty(t *testing.T, seed int64, keep int) (auto uint64) {
	const (
		procs = 3
		steps = 120
		chunk = 256
	)
	rng := rand.New(rand.NewSource(seed))
	fs := errfs.New()
	opts := Options{
		FS: fs, ChunkBytes: chunk, SegmentBytes: 512,
		Keep: keep,
	}
	s, err := Open("chunks", opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	model := newGCModel()
	now := time.Duration(0)
	at := func() time.Duration { now += time.Second; return now }

	pending := func(proc protocol.ProcessID) (protocol.Trigger, bool) {
		trigs := s.TentativeTriggers(proc)
		if len(trigs) == 0 {
			return protocol.Trigger{}, false
		}
		return trigs[rng.Intn(len(trigs))], true
	}

	compactions := 0
	for step := 0; step < steps; step++ {
		// The full audit is expensive; run it always after the steps where
		// chunks move or state reloads (compact, reopen), else sampled.
		audit := step%5 == 0
		proc := protocol.ProcessID(rng.Intn(procs))
		tag := fmt.Sprintf("seed=%d keep=%d step=%d", seed, keep, step)
		switch k := rng.Intn(10); {
		case k < 4: // save a new tentative
			var img []byte
			if base := model.last[proc]; base != nil && rng.Intn(3) > 0 {
				img = mutate(rng, base, chunk, 1+rng.Intn(2))
			} else {
				img = randImage(rng, (1+rng.Intn(8))*chunk+rng.Intn(chunk))
			}
			model.inum[proc]++
			tg := trig(int(proc), model.inum[proc])
			if _, err := s.PutTentative(proc, tg, at(), img); err != nil {
				t.Fatalf("%s: save: %v", tag, err)
			}
			if model.tent[proc] == nil {
				model.tent[proc] = make(map[protocol.Trigger][]byte)
			}
			model.tent[proc][tg] = img
			model.last[proc] = img
		case k < 7: // commit a pending tentative
			tg, ok := pending(proc)
			if !ok {
				continue
			}
			before := s.Stats().Compactions
			if err := s.CommitTentative(proc, tg, at()); err != nil {
				t.Fatalf("%s: commit %+v: %v", tag, tg, err)
			}
			auto += s.Stats().Compactions - before
			model.perm[proc] = append(model.perm[proc], model.tent[proc][tg])
			delete(model.tent[proc], tg)
			if keep > 0 {
				for len(model.perm[proc]) > keep {
					model.perm[proc] = model.perm[proc][1:]
				}
			}
		case k < 8: // drop a pending tentative
			tg, ok := pending(proc)
			if !ok {
				continue
			}
			if err := s.DropTentative(proc, tg); err != nil {
				t.Fatalf("%s: drop %+v: %v", tag, tg, err)
			}
			delete(model.tent[proc], tg)
		case k < 9: // force a GC cycle
			if err := s.Compact(); err != nil {
				t.Fatalf("%s: compact: %v", tag, err)
			}
			compactions++
			audit = true
		default: // clean close + reopen (recovery path)
			if err := s.Close(); err != nil {
				t.Fatalf("%s: close: %v", tag, err)
			}
			s, err = Open("chunks", opts)
			if err != nil {
				t.Fatalf("%s: reopen: %v", tag, err)
			}
			audit = true
		}
		if audit {
			auditGC(t, tag, s, model, keep, procs)
		}
	}
	auditGC(t, fmt.Sprintf("seed=%d keep=%d end", seed, keep), s, model, keep, procs)
	if compactions == 0 {
		t.Fatalf("seed=%d keep=%d: run never compacted — not a GC test", seed, keep)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	return auto
}

func TestGCRetentionProperty(t *testing.T) {
	for _, keep := range []int{1, 2, 0} {
		keep := keep
		t.Run(fmt.Sprintf("mode=incremental/keep=%d", keep), func(t *testing.T) {
			var auto uint64
			for seed := int64(1); seed <= 4; seed++ {
				auto += gcProperty(t, seed, keep)
			}
			if auto == 0 {
				t.Fatalf("keep=%d: no commit ever triggered a compaction — auto-compaction went untested", keep)
			}
		})
	}
}

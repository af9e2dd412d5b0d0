package chunkstore

// The chunk-store power-failure gauntlet, the payload-plane twin of
// internal/stable's: a scripted save→commit→drop→compact workload is
// first run fault-free to count every I/O operation it performs; then,
// for every operation index k, the workload is rerun on a fresh
// simulated disk with the power pulled at exactly op k (tearing the
// interrupted write when op k is a write — a save's batched append of its
// chunks and manifest included), the disk is recovered, and the store is
// reopened. After every single crash point:
//
//   - the reopen must succeed (a crash never bricks the store — not
//     even one landing mid-compaction, mid-segment-removal, or between
//     a rewrite and its boundary record);
//   - recovery never surfaces a manifest with missing or torn chunks:
//     Verify must pass for every process;
//   - under SyncOnCommit, every acknowledged commit is durable — the
//     surviving permanent payload materializes byte-identical to an
//     image the script actually saved, and is at least as new as the
//     last acknowledged commit; acknowledged drops never resurface;
//   - the reopened store must be fully usable (one more save+commit,
//     materialized back);
//   - rerunning the identical crash schedule must leave a byte-identical
//     disk image (determinism, checked by fingerprinting the filesystem).

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"mutablecp/internal/protocol"
	"mutablecp/internal/stable"
	"mutablecp/internal/stable/errfs"
)

// pt keys an acknowledgement by process and trigger.
type pt struct {
	proc protocol.ProcessID
	trig protocol.Trigger
}

// payloadAck records what the store acknowledged (returned nil for)
// before the crash — the durability contract is defined over
// acknowledgements.
type payloadAck struct {
	saved   map[pt][]byte                        // every image the script saved
	lastAck map[protocol.ProcessID]time.Duration // At of the newest acked commit per proc
	drops   []pt                                 // acknowledged drops
}

func newPayloadAck() *payloadAck {
	return &payloadAck{
		saved:   make(map[pt][]byte),
		lastAck: make(map[protocol.ProcessID]time.Duration),
	}
}

const gauntletChunk = 256

func gauntletOpts(fs *errfs.MemFS, pol stable.SyncPolicy) Options {
	return Options{
		FS: fs, Sync: pol,
		ChunkBytes: gauntletChunk, SegmentBytes: 4 << 10, Keep: 1,
	}
}

// payloadScript drives a deterministic save→commit→drop→compact
// workload (images from a fixed-seed RNG) and logs every
// acknowledgement. It stops at the first error (the crash).
func payloadScript(s *Store, a *payloadAck) error {
	rng := rand.New(rand.NewSource(7))
	step := 0
	at := func() time.Duration { step++; return time.Duration(step) * time.Second }
	save := func(proc int, trig protocol.Trigger, img []byte) error {
		if _, err := s.PutTentative(protocol.ProcessID(proc), trig, at(), img); err != nil {
			return err
		}
		a.saved[pt{protocol.ProcessID(proc), trig}] = img
		return nil
	}
	commit := func(proc int, trig protocol.Trigger) error {
		t := at()
		if err := s.CommitTentative(protocol.ProcessID(proc), trig, t); err != nil {
			return err
		}
		a.lastAck[protocol.ProcessID(proc)] = t
		return nil
	}
	drop := func(proc int, trig protocol.Trigger) error {
		at()
		if err := s.DropTentative(protocol.ProcessID(proc), trig); err != nil {
			return err
		}
		a.drops = append(a.drops, pt{protocol.ProcessID(proc), trig})
		return nil
	}

	img0 := randImage(rng, 4*gauntletChunk)
	img0b := mutate(rng, img0, gauntletChunk, 1)
	img0c := mutate(rng, img0b, gauntletChunk, 2)
	img1 := randImage(rng, 3*gauntletChunk)
	img1b := mutate(rng, img1, gauntletChunk, 1)
	// Larger than a segment: its save, and every compaction after it, is
	// one batched append that rolls between two of its frames.
	img2 := randImage(rng, 20*gauntletChunk)
	img2b := mutate(rng, img2, gauntletChunk, 3)
	for _, op := range []func() error{
		func() error { return save(0, trig(0, 1), img0) },
		func() error { return commit(0, trig(0, 1)) },
		func() error { return save(0, trig(0, 2), img0b) }, // mostly dedups
		func() error { return commit(0, trig(0, 2)) },      // evicts (0,1): garbage → may auto-compact
		func() error { return save(1, trig(1, 1), img1) },
		func() error { return drop(1, trig(1, 1)) }, // abort path
		func() error { return save(0, trig(0, 3), img0c) },
		func() error { return save(1, trig(1, 2), img1b) }, // two procs' tentatives in flight
		func() error { return commit(0, trig(0, 3)) },
		func() error { return commit(1, trig(1, 2)) },
		func() error { return save(2, trig(2, 1), img2) },
		func() error { return commit(2, trig(2, 1)) },
		func() error { return save(2, trig(2, 2), img2b) },
		func() error { return commit(2, trig(2, 2)) },
		func() error { return s.Compact() }, // compaction with nothing pending
	} {
		if err := op(); err != nil {
			return err
		}
	}
	return s.Close()
}

// runPayloadCrash runs the script against a disk that pulls the power
// at op crashAt (tearing the write if op crashAt is a write). crashAt =
// 0 means no fault. It returns the acknowledgement log.
func runPayloadCrash(t *testing.T, fs *errfs.MemFS, pol stable.SyncPolicy, crashAt uint64) *payloadAck {
	t.Helper()
	var hit bool
	if crashAt > 0 {
		n := uint64(0)
		fs.SetHook(func(op errfs.Op, path string) errfs.Fault {
			n++
			if n != crashAt {
				return errfs.FaultNone
			}
			hit = true
			if op == errfs.OpWrite {
				return errfs.FaultTornCrash
			}
			return errfs.FaultCrash
		})
	}
	a := newPayloadAck()
	s, err := Open("chunks", gauntletOpts(fs, pol))
	if err == nil {
		err = payloadScript(s, a)
	}
	fs.SetHook(nil)
	if crashAt == 0 {
		if err != nil {
			t.Fatalf("fault-free run failed: %v", err)
		}
		return a
	}
	if !hit {
		t.Fatalf("crash point %d never reached", crashAt)
	}
	if err == nil {
		t.Fatalf("crash at op %d surfaced no error", crashAt)
	}
	if !errors.Is(err, errfs.ErrCrashed) {
		t.Fatalf("crash at op %d: unexpected error %v", crashAt, err)
	}
	return a
}

// verifyPayloadReopen checks the reopened store against the
// acknowledgement log under the policy's durability contract, then
// proves the store is usable with one more save+commit+materialize.
func verifyPayloadReopen(t *testing.T, k uint64, re *Store, a *payloadAck, pol stable.SyncPolicy) {
	t.Helper()
	// Recovery never surfaces a manifest with missing or torn chunks.
	for proc := protocol.ProcessID(0); proc < 3; proc++ {
		if err := re.Verify(proc); err != nil {
			t.Fatalf("crash@%d: P%d manifest resolves to damaged chunks after recovery: %v", k, proc, err)
		}
	}
	for proc := protocol.ProcessID(0); proc < 3; proc++ {
		// Whatever permanent survived must be an image the script actually
		// saved for this process, byte for byte.
		if m, ok := re.Permanent(proc); ok {
			want, known := a.saved[pt{proc, m.Trigger}]
			if !known {
				t.Fatalf("crash@%d: P%d permanent %+v was never a saved payload — a torn or invented manifest surfaced", k, proc, m.Trigger)
			}
			img, _, err := re.Materialize(proc)
			if err != nil {
				t.Fatalf("crash@%d: P%d materialize: %v", k, proc, err)
			}
			if !bytes.Equal(img, want) {
				t.Fatalf("crash@%d: P%d permanent %+v materialized wrong bytes", k, proc, m.Trigger)
			}
		}
		// Every surviving tentative is one the script actually saved.
		for _, tg := range re.TentativeTriggers(proc) {
			if _, known := a.saved[pt{proc, tg}]; !known {
				t.Fatalf("crash@%d: unknown tentative P%d %+v surfaced", k, proc, tg)
			}
		}
	}
	if pol != stable.SyncNever {
		// Every acknowledged commit is durable; the surviving permanent may
		// only run AHEAD of the acks (a commit record fully written but not
		// yet acknowledged when the power died), never behind.
		for proc, at := range a.lastAck {
			m, ok := re.Permanent(proc)
			if !ok {
				t.Fatalf("crash@%d: P%d acknowledged commit lost entirely", k, proc)
			}
			if m.At < at {
				t.Fatalf("crash@%d: P%d acknowledged commit at %v lost (reopened permanent is at %v)", k, proc, at, m.At)
			}
		}
		// An acknowledged drop is commit-grade: the tentative must not
		// resurface.
		for _, d := range a.drops {
			for _, tg := range re.TentativeTriggers(d.proc) {
				if tg == d.trig {
					t.Fatalf("crash@%d: dropped tentative P%d %+v resurfaced", k, d.proc, d.trig)
				}
			}
		}
	}
	// The store must keep working after recovery.
	rng := rand.New(rand.NewSource(99))
	img := randImage(rng, 2*gauntletChunk)
	next := trig(9, 9)
	if _, err := re.PutTentative(9, next, time.Hour, img); err != nil {
		t.Fatalf("crash@%d: save after recovery: %v", k, err)
	}
	if err := re.CommitTentative(9, next, time.Hour); err != nil {
		t.Fatalf("crash@%d: commit after recovery: %v", k, err)
	}
	got, ok, err := re.Materialize(9)
	if err != nil || !ok || !bytes.Equal(got, img) {
		t.Fatalf("crash@%d: post-recovery commit not materializable (ok=%v err=%v)", k, ok, err)
	}
}

func chunkGauntlet(t *testing.T, pol stable.SyncPolicy) {
	// Pass 1 (fault-free) counts the crash points.
	var total uint64
	{
		fs := errfs.New()
		runPayloadCrash(t, fs, pol, 0)
		total = fs.Ops()
	}
	if total < 40 {
		t.Fatalf("workload performed only %d ops — script too small to be a gauntlet", total)
	}

	images := make([][]byte, total+1)
	for k := uint64(1); k <= total; k++ {
		fs := errfs.New()
		a := runPayloadCrash(t, fs, pol, k)
		fs.Recover()
		re, err := Open("chunks", gauntletOpts(fs, pol))
		if err != nil {
			t.Fatalf("crash@%d: reopen failed: %v", k, err)
		}
		verifyPayloadReopen(t, k, re, a, pol)
		if err := re.Close(); err != nil {
			t.Fatalf("crash@%d: close: %v", k, err)
		}
		images[k] = fs.Snapshot()
	}

	// Determinism: the identical crash schedule must reproduce the
	// identical disk image, byte for byte.
	for k := uint64(1); k <= total; k++ {
		fs := errfs.New()
		a := runPayloadCrash(t, fs, pol, k)
		fs.Recover()
		re, err := Open("chunks", gauntletOpts(fs, pol))
		if err != nil {
			t.Fatalf("crash@%d (replay): reopen failed: %v", k, err)
		}
		verifyPayloadReopen(t, k, re, a, pol)
		re.Close()
		if !bytes.Equal(images[k], fs.Snapshot()) {
			t.Fatalf("crash@%d: replaying the identical crash schedule produced a different disk image", k)
		}
	}
}

func TestChunkPowerFailureGauntlet(t *testing.T) {
	for _, pol := range []stable.SyncPolicy{stable.SyncOnCommit, stable.SyncNever} {
		pol := pol
		t.Run(fmt.Sprintf("sync=%v/mode=incremental", pol), func(t *testing.T) {
			chunkGauntlet(t, pol)
		})
	}
}

// TestChunkShortWriteGauntlet injects a non-crash short write at every
// write op: the store must poison itself, and a plain reopen (no power
// cut — the volatile prefix is still on disk) must recover a consistent
// state including every acknowledged commit.
func TestChunkShortWriteGauntlet(t *testing.T) {
	var writes uint64
	{
		fs := errfs.New()
		runPayloadCrash(t, fs, stable.SyncOnCommit, 0)
		writes = fs.Ops()
	}
	for k := uint64(1); k <= writes; k++ {
		fs := errfs.New()
		var n uint64
		hit := false
		fs.SetHook(func(op errfs.Op, path string) errfs.Fault {
			n++
			if n == k && op == errfs.OpWrite {
				hit = true
				return errfs.FaultShortWrite
			}
			return errfs.FaultNone
		})
		a := newPayloadAck()
		s, err := Open("chunks", gauntletOpts(fs, stable.SyncOnCommit))
		if err == nil {
			err = payloadScript(s, a)
		}
		fs.SetHook(nil)
		if !hit {
			continue // op k is not a write; covered by the crash gauntlet
		}
		if err == nil {
			t.Fatalf("short write at op %d not surfaced", k)
		}
		if s != nil {
			if s.Broken() == nil {
				t.Fatalf("short write at op %d did not poison the store", k)
			}
			s.Close()
		}
		re, err := Open("chunks", gauntletOpts(fs, stable.SyncOnCommit))
		if err != nil {
			t.Fatalf("short-write@%d: reopen failed: %v", k, err)
		}
		// No power was lost: everything acknowledged is still live.
		for proc, at := range a.lastAck {
			m, ok := re.Permanent(proc)
			if !ok || m.At < at {
				t.Fatalf("short-write@%d: P%d acknowledged commit lost without a crash", k, proc)
			}
		}
		verifyPayloadReopen(t, k, re, a, stable.SyncOnCommit)
		re.Close()
	}
}

// TestFailedBatchFailsTheSave: a save is one batched append of its new
// chunks and its manifest, and a write of that batch that fails or comes
// up short must fail the save. Nothing of it may stay indexed (a later
// save would dedup against chunks that are not on disk), and after a
// reopen the same image saves and materializes whole.
func TestFailedBatchFailsTheSave(t *testing.T) {
	for _, fault := range []errfs.Fault{errfs.FaultErr, errfs.FaultShortWrite} {
		fs := errfs.New()
		s, err := Open("chunks", gauntletOpts(fs, stable.SyncOnCommit))
		if err != nil {
			t.Fatal(err)
		}
		img := randImage(rand.New(rand.NewSource(3)), 6*gauntletChunk)
		before := s.Stats()
		fs.SetHook(func(op errfs.Op, _ string) errfs.Fault {
			if op == errfs.OpWrite {
				return fault
			}
			return errfs.FaultNone
		})
		_, err = s.PutTentative(0, trig(0, 1), time.Second, img)
		fs.SetHook(nil)
		if !errors.Is(err, errfs.ErrInjected) {
			t.Fatalf("fault %d: save returned %v", fault, err)
		}
		if s.Broken() == nil {
			t.Fatalf("fault %d: the failed batch did not poison the store", fault)
		}
		if st := s.Stats(); st.Chunks != before.Chunks || st.DiskBytes != before.DiskBytes || st.Tentatives != 0 || st.Saves != 0 {
			t.Fatalf("fault %d: the failed save left state behind: %+v", fault, st)
		}
		s.Close()
		re, err := Open("chunks", gauntletOpts(fs, stable.SyncOnCommit))
		if err != nil {
			t.Fatalf("fault %d: reopen: %v", fault, err)
		}
		if tr := re.TentativeTriggers(0); len(tr) != 0 {
			t.Fatalf("fault %d: the failed save surfaced as %v", fault, tr)
		}
		// A short write leaves whole chunk frames before the torn one;
		// the reopened store indexes them, unreferenced.
		_, err = re.PutTentative(0, trig(0, 1), time.Second, img)
		if err == nil {
			err = re.CommitTentative(0, trig(0, 1), 2*time.Second)
		}
		if err != nil {
			t.Fatalf("fault %d: save after reopen: %v", fault, err)
		}
		if got, ok, err := re.Materialize(0); err != nil || !ok || !bytes.Equal(got, img) {
			t.Fatalf("fault %d: image does not materialize after reopen (%v)", fault, err)
		}
		re.Close()
	}
}

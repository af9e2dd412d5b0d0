package stable_test

// The power-failure gauntlet: the acceptance test for the durable store.
// A scripted write→commit→compact workload is first run fault-free to
// count every I/O operation it performs; then, for every operation index
// k, the workload is rerun on a fresh simulated disk with the power
// pulled at exactly op k (tearing the interrupted write in half when op
// k is a write), the disk is recovered, and the store is reopened. After
// every single crash point:
//
//   - the reopen must succeed (a crash never bricks the store);
//   - under SyncOnCommit, every commit and drop the store acknowledged
//     before the crash must be intact — and nothing that was never a
//     real record (torn tails, garbage) may surface;
//   - the reopened store must be fully usable (one more save+commit);
//   - rerunning the identical crash schedule must leave a byte-identical
//     disk image (determinism, checked by fingerprinting the filesystem).

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"mutablecp/internal/checkpoint"
	"mutablecp/internal/protocol"
	"mutablecp/internal/stable"
	"mutablecp/internal/stable/errfs"
)

// ack records what the store acknowledged (returned nil for) before the
// crash — the durability contract is defined over acknowledgements.
type ack struct {
	commits []int              // CSNs of acknowledged commits, in order
	drops   []protocol.Trigger // acknowledged drops
	saved   map[protocol.Trigger]int
}

// script drives a deterministic write→commit→compact workload and logs
// every acknowledgement. It stops at the first error (the crash).
func script(st *stable.Store) (*ack, error) {
	a := &ack{saved: make(map[protocol.Trigger]int)}
	step := 0
	save := func(trig protocol.Trigger, csn int) error {
		step++
		if err := st.SaveTentative(state(0, 3, csn), trig, time.Duration(step)*time.Second); err != nil {
			return err
		}
		a.saved[trig] = csn
		return nil
	}
	commit := func(trig protocol.Trigger) error {
		step++
		if err := st.MakePermanent(trig, time.Duration(step)*time.Second); err != nil {
			return err
		}
		a.commits = append(a.commits, a.saved[trig])
		return nil
	}
	drop := func(trig protocol.Trigger) error {
		step++
		if err := st.DropTentative(trig); err != nil {
			return err
		}
		a.drops = append(a.drops, trig)
		return nil
	}

	t1 := protocol.Trigger{Pid: 0, Inum: 1}
	t2 := protocol.Trigger{Pid: 1, Inum: 1}
	t3 := protocol.Trigger{Pid: 2, Inum: 1}
	t4 := protocol.Trigger{Pid: 0, Inum: 2}
	for _, op := range []func() error{
		func() error { return save(t1, 1) },
		func() error { return commit(t1) }, // compacts (Keep=1)
		func() error { return save(t2, 2) },
		func() error { return drop(t2) }, // abort path
		func() error { return save(t3, 3) },
		func() error { return save(t4, 4) }, // concurrent tentatives
		func() error { return commit(t3) },  // compacts with t4 pending
		func() error { return commit(t4) },  // compacts again
	} {
		if err := op(); err != nil {
			return a, err
		}
	}
	return a, st.Close()
}

// runToCrash runs the script against a disk that pulls the power at op
// crashAt (tearing the write if op crashAt is a write). crashAt = 0
// means no fault. It returns the acknowledgement log.
func runToCrash(t *testing.T, fs *errfs.MemFS, pol stable.SyncPolicy, crashAt uint64) *ack {
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
	opts := stable.Options{FS: fs, Sync: pol, Keep: 1}
	st, err := stable.Open("mss/p000", 0, 3, opts)
	var a *ack
	if err == nil {
		a, err = script(st)
	} else {
		a = &ack{saved: make(map[protocol.Trigger]int)}
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

// verifyReopen checks the reopened store against the acknowledgement log
// under the given policy's durability contract, then proves the store is
// usable by committing one more checkpoint.
func verifyReopen(t *testing.T, k uint64, re *stable.Store, a *ack, pol stable.SyncPolicy) {
	t.Helper()
	validCSN := map[int]bool{0: true}
	for _, c := range a.saved {
		validCSN[c] = true
	}
	perm := re.Permanent()
	if !validCSN[perm.State.CSN] {
		t.Fatalf("crash@%d: permanent CSN %d was never a saved checkpoint — a torn or invented record surfaced", k, perm.State.CSN)
	}
	lastAcked := 0
	if len(a.commits) > 0 {
		lastAcked = a.commits[len(a.commits)-1]
	}
	if pol != stable.SyncNever {
		// Every acknowledged commit is durable; the surviving permanent may
		// only run AHEAD of the acks (a commit record fully written but not
		// yet acknowledged when the power died), never behind.
		if perm.State.CSN < lastAcked {
			t.Fatalf("crash@%d: acknowledged commit CSN %d lost (reopened permanent is %d)", k, lastAcked, perm.State.CSN)
		}
		// An acknowledged drop is commit-grade: the tentative must not
		// resurface.
		for _, trig := range a.drops {
			if _, ok := re.Tentative(trig); ok {
				t.Fatalf("crash@%d: dropped tentative %v resurfaced", k, trig)
			}
		}
	}
	// Whatever survived must be internally coherent: Keep=1 retains
	// exactly one permanent, and every surviving tentative is one the
	// script actually saved.
	if h := re.History(); len(h) != 1 || h[0].Status != checkpoint.StatusPermanent {
		t.Fatalf("crash@%d: history %+v", k, h)
	}
	for _, trig := range re.TentativeTriggers() {
		rec, _ := re.Tentative(trig)
		if want, ok := a.saved[trig]; !ok || rec.State.CSN != want {
			t.Fatalf("crash@%d: unknown tentative %v (CSN %d) surfaced", k, trig, rec.State.CSN)
		}
	}
	// The store must keep working after recovery.
	next := protocol.Trigger{Pid: 9, Inum: 9}
	if err := re.SaveTentative(state(0, 3, 99), next, time.Hour); err != nil {
		t.Fatalf("crash@%d: save after recovery: %v", k, err)
	}
	if err := re.MakePermanent(next, time.Hour); err != nil {
		t.Fatalf("crash@%d: commit after recovery: %v", k, err)
	}
	if re.Permanent().State.CSN != 99 {
		t.Fatalf("crash@%d: post-recovery commit not visible", k)
	}
}

func gauntlet(t *testing.T, pol stable.SyncPolicy) {
	// Pass 1 (fault-free) counts the crash points.
	var total uint64
	{
		fs := errfs.New()
		runToCrash(t, fs, pol, 0)
		total = fs.Ops()
	}
	if total < 20 {
		t.Fatalf("workload performed only %d ops — script too small to be a gauntlet", total)
	}

	images := make([][]byte, total+1)
	for k := uint64(1); k <= total; k++ {
		fs := errfs.New()
		a := runToCrash(t, fs, pol, k)
		fs.Recover()
		re, err := stable.Open("mss/p000", 0, 3, stable.Options{FS: fs, Sync: pol, Keep: 1})
		if err != nil {
			t.Fatalf("crash@%d: reopen failed: %v", k, err)
		}
		verifyReopen(t, k, re, a, pol)
		if err := re.Close(); err != nil {
			t.Fatalf("crash@%d: close: %v", k, err)
		}
		images[k] = fs.Snapshot()
	}

	// Determinism: the identical crash schedule must reproduce the
	// identical disk image, byte for byte.
	for k := uint64(1); k <= total; k++ {
		fs := errfs.New()
		a := runToCrash(t, fs, pol, k)
		fs.Recover()
		re, err := stable.Open("mss/p000", 0, 3, stable.Options{FS: fs, Sync: pol, Keep: 1})
		if err != nil {
			t.Fatalf("crash@%d (replay): reopen failed: %v", k, err)
		}
		verifyReopen(t, k, re, a, pol)
		re.Close()
		if !bytes.Equal(images[k], fs.Snapshot()) {
			t.Fatalf("crash@%d: replaying the identical crash schedule produced a different disk image", k)
		}
	}
}

func TestPowerFailureGauntlet(t *testing.T) {
	for _, pol := range []stable.SyncPolicy{stable.SyncOnCommit, stable.SyncNever} {
		pol := pol
		t.Run(fmt.Sprintf("sync=%v", pol), func(t *testing.T) {
			gauntlet(t, pol)
		})
	}
}

// TestShortWriteGauntlet injects a non-crash short write at every write
// op: the store must poison itself, and a plain reopen (no power cut —
// the volatile prefix is still on disk) must recover a consistent state.
func TestShortWriteGauntlet(t *testing.T) {
	var writes uint64
	{
		fs := errfs.New()
		runToCrash(t, fs, stable.SyncOnCommit, 0)
		fs.SetHook(nil)
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
		st, err := stable.Open("mss/p000", 0, 3, stable.Options{FS: fs, Keep: 1})
		var a *ack
		if err == nil {
			a, err = script(st)
		}
		fs.SetHook(nil)
		if !hit {
			continue // op k is not a write; covered by the crash gauntlet
		}
		if err == nil {
			t.Fatalf("short write at op %d not surfaced", k)
		}
		if a == nil {
			a = &ack{saved: make(map[protocol.Trigger]int)}
		}
		if st != nil {
			if st.Broken() == nil {
				t.Fatalf("short write at op %d did not poison the store", k)
			}
			st.Close()
		}
		re, err := stable.Open("mss/p000", 0, 3, stable.Options{FS: fs, Keep: 1})
		if err != nil {
			t.Fatalf("short-write@%d: reopen failed: %v", k, err)
		}
		// No power was lost: everything acknowledged is still live, so the
		// reopened state must include every acknowledged commit.
		if a != nil && len(a.commits) > 0 {
			if re.Permanent().State.CSN < a.commits[len(a.commits)-1] {
				t.Fatalf("short-write@%d: acknowledged commit lost without a crash", k)
			}
		}
		verifyReopen(t, k, re, a, stable.SyncOnCommit)
		re.Close()
	}
}

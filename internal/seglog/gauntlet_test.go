package seglog_test

// The power-failure gauntlet for the log itself, in the shape of
// internal/stable's: a scripted workload — appends that roll, batched
// appends that roll between their frames, a compaction with no rewrite
// phase, one with (its rewrite one batch), a reopen that finds a stale
// prefix to remove — is first run fault-free to count every I/O operation
// it performs; then, for every operation index k, it is rerun on a fresh
// simulated disk with the power pulled at exactly op k (tearing the
// interrupted write when op k is a write), the disk is recovered and the
// log reopened. After every single crash point:
//
//   - the reopen must succeed;
//   - the recovered ids are one consecutive run (floor, last]: no frame
//     is lost from the middle and none surfaces past a torn one, so what
//     survives of a batch is a prefix of its frames;
//   - under SyncOnCommit and SyncAlways, last is at least the newest id
//     whose durability was acknowledged, and floor is that of the newest
//     acknowledged compaction or of one the script started after it;
//   - the reopened log is usable (one more durable append, found again
//     by the next open);
//   - rerunning the identical crash schedule leaves a byte-identical disk.

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"mutablecp/internal/seglog"
	"mutablecp/internal/stable/errfs"
)

// acks is what the log acknowledged before the crash.
type acks struct {
	tried      uint64   // newest id handed to Append
	first      uint64   // first id of the newest put or batch
	durable    uint64   // newest id acknowledged durable
	floors     []uint64 // every floor a compaction was started with
	ackedFloor uint64   // floor of the newest acknowledged compaction
}

// script runs the workload against fs and stops at the first error.
func script(t *testing.T, fs *errfs.MemFS, pol seglog.SyncPolicy, a *acks) error {
	l, m, err := open(t, fs, pol)
	if err != nil {
		return err
	}
	put := func(commit bool) func() error {
		return func() error {
			a.first, a.tried = m.last+1, m.last+1
			if err := m.put(l, commit); err != nil {
				return err
			}
			if commit || pol == seglog.SyncAlways {
				a.durable = m.last
			}
			return nil
		}
	}
	batch := func(n int, commit bool) func() error {
		return func() error {
			a.first, a.tried = m.last+1, m.last+uint64(n)
			if _, err := m.putBatch(l, n, commit); err != nil {
				return err
			}
			if commit || pol == seglog.SyncAlways {
				a.durable = m.last
			}
			return nil
		}
	}
	compact := func(keep uint64, rewrite bool) func() error {
		return func() error {
			if m.last-m.floor > keep {
				a.floors = append(a.floors, m.last-keep)
			}
			if err := m.compact(l, keep, rewrite); err != nil {
				return err
			}
			a.durable, a.ackedFloor = m.last, m.floor
			return nil
		}
	}
	reopen := func() error {
		if err := l.Close(); err != nil {
			return err
		}
		// A segment older than the boundary, as a crash between a
		// compaction's removals and its directory fsync resurrects one.
		stale, err := fs.Create(dir + "/t-00000001.log")
		if err != nil {
			return err
		}
		if _, err := stale.Write(append(seal(body('S', 0, 0)), seal(body('D', 1))...)); err != nil {
			return err
		}
		if err := stale.Sync(); err != nil {
			return err
		}
		if err := stale.Close(); err != nil {
			return err
		}
		if err := fs.SyncDir(dir); err != nil {
			return err
		}
		before := *m
		if l, m, err = open(t, fs, pol); err != nil {
			return err
		}
		if m.floor != before.floor || m.last != before.last {
			t.Fatalf("reopen went from (%d,%d] to (%d,%d]", before.floor, before.last, m.floor, m.last)
		}
		if segs := l.Segments(); segs[0] == dir+"/t-00000001.log" {
			t.Fatalf("stale prefix kept: %v", segs)
		}
		return nil
	}
	for _, op := range []func() error{
		put(false), put(true), put(false), put(false), put(true), // rolls once
		compact(2, false),
		put(true), put(false), put(true),
		batch(5, false), // three segments
		batch(2, true),
		compact(3, true),
		put(true),
		reopen, // removes the stale prefix
		put(true),
		compact(1, true),
		put(false), put(true),
		batch(6, true),
	} {
		if err := op(); err != nil {
			return err
		}
	}
	return l.Close()
}

// crashAt returns a hook that pulls the power at op k.
func crashAt(k uint64, hit *bool) func(errfs.Op, string) errfs.Fault {
	var n uint64
	return func(op errfs.Op, _ string) errfs.Fault {
		if n++; n != k {
			return errfs.FaultNone
		}
		*hit = true
		if op == errfs.OpWrite {
			return errfs.FaultTornCrash
		}
		return errfs.FaultCrash
	}
}

// verify reopens fs after a fault and checks the contract above.
func verify(t *testing.T, k uint64, fs *errfs.MemFS, pol seglog.SyncPolicy, a *acks) {
	t.Helper()
	l, m, err := open(t, fs, pol)
	if err != nil {
		t.Fatalf("fault@%d: reopen failed: %v", k, err)
	}
	if m.floor > m.last || m.last > a.tried {
		t.Fatalf("fault@%d: recovered (%d,%d], only %d ids were ever written", k, m.floor, m.last, a.tried)
	}
	known := m.floor == 0
	for _, f := range a.floors {
		known = known || f == m.floor
	}
	if !known {
		t.Fatalf("fault@%d: recovered floor %d is none a compaction used (%v)", k, m.floor, a.floors)
	}
	if pol != seglog.SyncNever {
		if m.last < a.durable {
			t.Fatalf("fault@%d: acknowledged id %d lost (recovered up to %d)", k, a.durable, m.last)
		}
		if m.floor < a.ackedFloor {
			t.Fatalf("fault@%d: acknowledged compaction to floor %d undone (recovered floor %d)", k, a.ackedFloor, m.floor)
		}
	}
	want := m.last + 1
	if err := m.put(l, true); err != nil {
		t.Fatalf("fault@%d: append after recovery: %v", k, err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("fault@%d: close: %v", k, err)
	}
	if l, m, err = open(t, fs, pol); err != nil || m.last != want {
		t.Fatalf("fault@%d: second reopen: last %d want %d, %v", k, m.last, want, err)
	}
	l.Close()
}

func gauntlet(t *testing.T, pol seglog.SyncPolicy) {
	fs := errfs.New()
	if err := script(t, fs, pol, &acks{}); err != nil {
		t.Fatalf("fault-free run failed: %v", err)
	}
	total := fs.Ops()
	if total < 60 {
		t.Fatalf("workload performed only %d ops — script too small to be a gauntlet", total)
	}
	run := func(k uint64) []byte {
		fs := errfs.New()
		var hit bool
		fs.SetHook(crashAt(k, &hit))
		a := &acks{}
		err := script(t, fs, pol, a)
		fs.SetHook(nil)
		if !hit || !errors.Is(err, errfs.ErrCrashed) {
			t.Fatalf("crash@%d: reached=%v, script error %v", k, hit, err)
		}
		fs.Recover()
		verify(t, k, fs, pol, a)
		return fs.Snapshot()
	}
	for k := uint64(1); k <= total; k++ {
		if first := run(k); !bytes.Equal(first, run(k)) {
			t.Fatalf("crash@%d: replaying the identical crash schedule produced a different disk image", k)
		}
	}
}

func TestLogPowerFailureGauntlet(t *testing.T) {
	for _, pol := range []seglog.SyncPolicy{seglog.SyncOnCommit, seglog.SyncAlways, seglog.SyncNever} {
		t.Run(fmt.Sprintf("sync=%v", pol), func(t *testing.T) { gauntlet(t, pol) })
	}
}

// TestLogShortWriteGauntlet injects a non-crash short write at every
// write op: a plain reopen (no power cut — every complete write is still
// on disk) must recover every id whose Append returned.
func TestLogShortWriteGauntlet(t *testing.T) {
	fs := errfs.New()
	if err := script(t, fs, seglog.SyncOnCommit, &acks{}); err != nil {
		t.Fatal(err)
	}
	total := fs.Ops()
	for k := uint64(1); k <= total; k++ {
		fs := errfs.New()
		var n uint64
		hit := false
		fs.SetHook(func(op errfs.Op, _ string) errfs.Fault {
			if n++; n == k && op == errfs.OpWrite {
				hit = true
				return errfs.FaultShortWrite
			}
			return errfs.FaultNone
		})
		a := &acks{}
		err := script(t, fs, seglog.SyncOnCommit, a)
		fs.SetHook(nil)
		if !hit {
			continue // op k is not a write; covered by the crash gauntlet
		}
		if !errors.Is(err, errfs.ErrInjected) {
			t.Fatalf("short write at op %d: script error %v", k, err)
		}
		if a.first > 0 {
			a.durable = a.first - 1 // at most the put or batch that failed is not on disk
		}
		verify(t, k, fs, seglog.SyncOnCommit, a)
	}
}

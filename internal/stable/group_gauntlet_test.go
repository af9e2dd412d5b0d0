package stable_test

// The concurrent power-failure gauntlet: the counterpart of the serial
// gauntlet. Several committers drive save→commit→drop workloads into one
// store at once. The store serializes them, each commit's append and
// fsync under its lock, so their records interleave in the log and a
// fsync may also cover another committer's tentatives; for every I/O
// operation index k the workload reruns on a fresh simulated disk with
// the power pulled at op k. After every crash point:
//
//   - the reopen must succeed;
//   - every commit and drop ANY committer had acknowledged before the
//     crash must be intact — a caller is released only after its own
//     record is durable, however the others' records interleave with it;
//   - nothing that was never a real record may surface;
//   - recovery is deterministic: reopening the identical crashed image
//     twice produces byte-identical disks (concurrency may vary the
//     crash schedule between runs, but never what recovery does with a
//     given image).

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"mutablecp/internal/daemon"
	"mutablecp/internal/protocol"
	"mutablecp/internal/stable"
	"mutablecp/internal/stable/errfs"
)

const (
	groupCommitters = 3
	groupIters      = 4
	// groupKeep retains more permanents than the workload commits, so
	// every acknowledged commit must still be present after recovery
	// (compaction batches still run via CompactEvery).
	groupKeep = 64
)

// groupCSN gives every (committer, iteration) a unique CSN so recovered
// records are attributable.
func groupCSN(who, iter int) int { return (who+1)*100 + iter }

// groupTrigger is the instance a committer saves at an iteration: all of
// them are the store's own, so the outcome summary answers for each.
func groupTrigger(who, iter int) protocol.Trigger {
	return protocol.Trigger{Pid: 0, Inum: who*groupIters + iter + 1}
}

// groupAcks is the mutex-guarded acknowledgement log shared by the
// committers. The durability contract is defined over it: an entry
// exists iff the store returned nil before the crash.
type groupAcks struct {
	mu      sync.Mutex
	commits map[protocol.Trigger]int // trigger -> CSN
	drops   map[protocol.Trigger]bool
}

func newGroupAcks() *groupAcks {
	return &groupAcks{
		commits: make(map[protocol.Trigger]int),
		drops:   make(map[protocol.Trigger]bool),
	}
}

// groupScript runs the concurrent workload: each committer saves and
// commits its own triggers (dropping every fourth), stopping at its
// first error. It reports whether any error surfaced.
func groupScript(st *stable.Store, a *groupAcks) bool {
	var wg sync.WaitGroup
	var crashed sync.Once
	sawErr := false
	for who := 0; who < groupCommitters; who++ {
		wg.Add(1)
		go func(who int) {
			defer wg.Done()
			for iter := 0; iter < groupIters; iter++ {
				trig := groupTrigger(who, iter)
				csn := groupCSN(who, iter)
				at := time.Duration(csn) * time.Second
				if err := st.SaveTentative(state(0, groupCommitters, csn), trig, at); err != nil {
					crashed.Do(func() { sawErr = true })
					return
				}
				if iter%4 == 3 {
					if err := st.DropTentative(trig); err != nil {
						crashed.Do(func() { sawErr = true })
						return
					}
					a.mu.Lock()
					a.drops[trig] = true
					a.mu.Unlock()
					continue
				}
				if err := st.MakePermanent(trig, at); err != nil {
					crashed.Do(func() { sawErr = true })
					return
				}
				a.mu.Lock()
				a.commits[trig] = csn
				a.mu.Unlock()
			}
		}(who)
	}
	wg.Wait()
	return sawErr
}

// groupOptions picks the store options a gauntlet runs under.
type groupOptions func(fs *errfs.MemFS) stable.Options

// groupOpts keeps every permanent and compacts often.
func groupOpts(fs *errfs.MemFS) stable.Options {
	return stable.Options{FS: fs, Sync: stable.SyncOnCommit, Keep: groupKeep, CompactEvery: 3}
}

// daemonOpts are exactly the options mcpd opens its store with.
func daemonOpts(fs *errfs.MemFS) stable.Options {
	opts := (&daemon.Config{}).StoreOptions()
	opts.FS = fs
	return opts
}

// runGroupToCrash runs the concurrent script with the power pulled at op
// crashAt (0 = fault-free). It returns the ack log and whether the crash
// point was actually reached by this schedule.
func runGroupToCrash(t *testing.T, opts groupOptions, fs *errfs.MemFS, crashAt uint64) (*groupAcks, bool) {
	t.Helper()
	hit := false
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
	a := newGroupAcks()
	st, err := stable.Open("mss/p000", 0, groupCommitters, opts(fs))
	if err == nil {
		sawErr := groupScript(st, a)
		cerr := st.Close()
		if crashAt == 0 && (sawErr || cerr != nil) {
			t.Fatalf("fault-free concurrent run failed (script err=%v close err=%v)", sawErr, cerr)
		}
	} else if crashAt == 0 {
		t.Fatalf("fault-free open failed: %v", err)
	}
	fs.SetHook(nil)
	return a, hit || crashAt == 0
}

// verifyGroupReopen checks the reopened store against the concurrent
// acknowledgement log.
func verifyGroupReopen(t *testing.T, k uint64, re *stable.Store, keepsAll bool, a *groupAcks) {
	t.Helper()
	// Index the recovered history by trigger.
	perm := make(map[protocol.Trigger]int)
	for _, rec := range re.History() {
		perm[rec.Trigger] = rec.State.CSN
	}
	// Every acknowledged commit survived: no committer is released before
	// its record is durable, whatever the other committers appended in
	// between. The outcome summary says so under any Keep;
	// a history that retains every commit must also hold its state.
	outcomes := re.Outcomes()
	for trig, csn := range a.commits {
		if !outcomes.Committed(trig.Inum) {
			t.Fatalf("crash@%d: acknowledged commit %v not in the outcomes %+v", k, trig, outcomes)
		}
		if !keepsAll {
			continue
		}
		got, ok := perm[trig]
		if !ok {
			t.Fatalf("crash@%d: acknowledged commit %v (CSN %d) lost", k, trig, csn)
		}
		if got != csn {
			t.Fatalf("crash@%d: commit %v recovered with CSN %d, want %d", k, trig, got, csn)
		}
	}
	if len(a.commits) > 0 && re.Permanent().State.CSN == 0 {
		t.Fatalf("crash@%d: %d commits acknowledged, permanent is still the seed", k, len(a.commits))
	}
	// Acknowledged drops are commit-grade: the tentative must not
	// resurface (as tentative or permanent), and the drop is an abort.
	for trig := range a.drops {
		if _, ok := re.Tentative(trig); ok {
			t.Fatalf("crash@%d: dropped tentative %v resurfaced", k, trig)
		}
		if _, ok := perm[trig]; ok {
			t.Fatalf("crash@%d: dropped tentative %v resurfaced as permanent", k, trig)
		}
		if outcomes.Committed(trig.Inum) {
			t.Fatalf("crash@%d: acknowledged drop %v answers committed", k, trig)
		}
	}
	// Nothing invented: every recovered record maps back to a CSN the
	// script could have written (torn tails must never decode).
	valid := map[int]bool{0: true}
	for who := 0; who < groupCommitters; who++ {
		for iter := 0; iter < groupIters; iter++ {
			valid[groupCSN(who, iter)] = true
		}
	}
	for trig, csn := range perm {
		if !valid[csn] {
			t.Fatalf("crash@%d: permanent %v has invented CSN %d", k, trig, csn)
		}
	}
	for _, trig := range re.TentativeTriggers() {
		rec, _ := re.Tentative(trig)
		if !valid[rec.State.CSN] {
			t.Fatalf("crash@%d: tentative %v has invented CSN %d", k, trig, rec.State.CSN)
		}
	}
	// The store must keep working after recovery.
	next := protocol.Trigger{Pid: 9, Inum: 9}
	if err := re.SaveTentative(state(0, groupCommitters, 9999), next, time.Hour); err != nil {
		t.Fatalf("crash@%d: save after recovery: %v", k, err)
	}
	if err := re.MakePermanent(next, time.Hour); err != nil {
		t.Fatalf("crash@%d: commit after recovery: %v", k, err)
	}
}

// reopenImage opens and cleanly closes the store on fs, returning the
// resulting disk image.
func reopenImage(t *testing.T, k uint64, opts groupOptions, fs *errfs.MemFS, a *groupAcks, verify bool) []byte {
	t.Helper()
	o := opts(fs)
	re, err := stable.Open("mss/p000", 0, groupCommitters, o)
	if err != nil {
		t.Fatalf("crash@%d: reopen failed: %v", k, err)
	}
	if verify {
		verifyGroupReopen(t, k, re, o.Keep == 0 || o.Keep >= groupCommitters*groupIters, a)
	}
	if err := re.Close(); err != nil {
		t.Fatalf("crash@%d: close: %v", k, err)
	}
	return fs.Snapshot()
}

func TestGroupCommitGauntlet(t *testing.T) { groupGauntlet(t, groupOpts) }

// TestGroupCommitGauntletDaemonOptions runs the same gauntlet under the
// options mcpd uses, where the discard rule keeps one permanent and the
// outcome summary is the only record of the older commits.
func TestGroupCommitGauntletDaemonOptions(t *testing.T) { groupGauntlet(t, daemonOpts) }

func groupGauntlet(t *testing.T, opts groupOptions) {
	// Pass 1 (fault-free) sizes the crash-point range. The interleaving
	// (and so when compaction runs and which fsyncs find nothing new) makes
	// the exact op count schedule-dependent, so later runs may perform
	// fewer ops; unreached points are skipped, but most must be covered.
	var total uint64
	{
		fs := errfs.New()
		runGroupToCrash(t, opts, fs, 0)
		total = fs.Ops()
	}
	if total < 30 {
		t.Fatalf("concurrent workload performed only %d ops — too small to be a gauntlet", total)
	}

	covered := 0
	for k := uint64(1); k <= total; k++ {
		fs := errfs.New()
		a, hit := runGroupToCrash(t, opts, fs, k)
		if !hit {
			continue
		}
		covered++
		fs.Recover()

		// Recovery determinism: reopening the same crashed image twice
		// must do the identical repair (truncation, replay) byte for byte.
		// The first reopen verifies acks; the second must not change the
		// disk beyond what the first reopen's own workload appended — so
		// compare two bare reopens before running the verification writes.
		img1 := reopenImage(t, k, opts, fs, a, false)
		img2 := reopenImage(t, k, opts, fs, a, false)
		if !bytes.Equal(img1, img2) {
			t.Fatalf("crash@%d: recovering the identical image twice diverged", k)
		}
		reopenImage(t, k, opts, fs, a, true)
	}
	if covered < int(total)/2 {
		t.Fatalf("only %d/%d crash points reached — schedules too short", covered, total)
	}
}

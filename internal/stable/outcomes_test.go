package stable_test

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"mutablecp/internal/protocol"
	"mutablecp/internal/stable"
	"mutablecp/internal/stable/errfs"
)

// outcomeScript is the workload testdata/v1-log was written with, by the
// last build that wrote only version-1 records: P0's own instances 1 and 3
// commit, 2 and 4 are dropped, and other initiators' instances commit,
// drop and stay pending around them. It must not change, or the fixture
// no longer records what it ran.
func outcomeScript(t *testing.T, st *stable.Store) {
	t.Helper()
	csn := 0
	save := func(pid, inum int) protocol.Trigger {
		csn++
		trig := protocol.Trigger{Pid: pid, Inum: inum}
		if err := st.SaveTentative(state(0, 3, csn), trig, time.Duration(csn)*time.Second); err != nil {
			t.Fatal(err)
		}
		return trig
	}
	commit := func(trig protocol.Trigger) {
		if err := st.MakePermanent(trig, time.Duration(csn)*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	drop := func(trig protocol.Trigger) {
		if err := st.DropTentative(trig); err != nil {
			t.Fatal(err)
		}
	}
	commit(save(0, 1))
	commit(save(1, 1))
	drop(save(0, 2))
	commit(save(0, 3))
	save(2, 5)
	drop(save(0, 4))
	drop(save(1, 2))
}

// scriptOutcomes is what outcomeScript leaves: only P0's own instances
// count, and a drop is an abort.
var scriptOutcomes = stable.Outcomes{Decided: 4, Aborted: []int{2, 4}}

// sameAnswers asserts that two summaries answer every question alike.
func sameAnswers(t *testing.T, what string, got, want stable.Outcomes) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: outcomes %+v, want %+v", what, got, want)
	}
	for inum := 0; inum <= want.Decided+2; inum++ {
		if got.Committed(inum) != want.Committed(inum) {
			t.Fatalf("%s: Committed(%d) = %v, want %v", what, inum, got.Committed(inum), want.Committed(inum))
		}
	}
}

func TestOutcomesCommittedRule(t *testing.T) {
	for inum, want := range map[int]bool{0: true, 1: true, 2: false, 3: true, 4: false, 5: false} {
		if got := scriptOutcomes.Committed(inum); got != want {
			t.Errorf("Committed(%d) = %v, want %v", inum, got, want)
		}
	}
}

// TestOutcomesSurviveCompactionAndReopen: the summary is the same when
// replay derives it from records, after compaction has folded those
// records into a snapshot, and after a reopen from that snapshot alone.
func TestOutcomesSurviveCompactionAndReopen(t *testing.T) {
	fs := errfs.New()
	opts := stable.Options{FS: fs, Keep: 1, CompactEvery: 64}
	st, err := stable.Open("mss/p000", 0, 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	outcomeScript(t, st)
	sameAnswers(t, "live", st.Outcomes(), scriptOutcomes)
	if st.Metrics().Compactions != 0 {
		t.Fatalf("compacted %d times before the cadence", st.Metrics().Compactions)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := stable.Open("mss/p000", 0, 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	sameAnswers(t, "reopened from records", re.Outcomes(), scriptOutcomes)
	if err := re.Compact(); err != nil {
		t.Fatal(err)
	}
	sameAnswers(t, "compacted", re.Outcomes(), scriptOutcomes)
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}

	re, err = stable.Open("mss/p000", 0, 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if n := re.Metrics().ReplayedRecords; n != 1 {
		t.Fatalf("reopen after compaction replayed %d records, want the snapshot alone", n)
	}
	sameAnswers(t, "reopened from the snapshot", re.Outcomes(), scriptOutcomes)
	if _, ok := re.Tentative(protocol.Trigger{Pid: 2, Inum: 5}); !ok {
		t.Fatal("pending tentative lost across compaction")
	}
}

// TestOutcomesFromVersion1Log reopens a log the version-1 build wrote
// with outcomeScript under Keep 0, so every record follows its only
// snapshot: replay derives the summary this build keeps. Under the
// daemon's options the first compaction then carries it forward.
func TestOutcomesFromVersion1Log(t *testing.T) {
	seg, err := os.ReadFile(filepath.Join("testdata", "v1-log", "seg-00000001.log"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "seg-00000001.log"), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, opts := range []stable.Options{{}, {Keep: 1, CompactEvery: 64}} {
		st, err := stable.Open(dir, 0, 3, opts)
		if err != nil {
			t.Fatalf("keep %d: open the version-1 log: %v", opts.Keep, err)
		}
		sameAnswers(t, "version-1 log", st.Outcomes(), scriptOutcomes)
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// The same script on this build answers alike.
	fresh, err := stable.Open("mss/p000", 0, 3, stable.Options{FS: errfs.New()})
	if err != nil {
		t.Fatal(err)
	}
	outcomeScript(t, fresh)
	sameAnswers(t, "this build", fresh.Outcomes(), scriptOutcomes)
	fresh.Close()

	st, err := stable.Open(dir, 0, 3, stable.Options{Keep: 1, CompactEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	st.Close()
	re, err := stable.Open(dir, 0, 3, stable.Options{Keep: 1, CompactEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	sameAnswers(t, "version-1 log compacted to version 2", re.Outcomes(), scriptOutcomes)
}

// TestCompactionCadenceSurvivesReopen: commits replayed at open count
// toward CompactEvery, so a process that restarts more often than it
// commits CompactEvery times still compacts and its log stays bounded.
func TestCompactionCadenceSurvivesReopen(t *testing.T) {
	fs := errfs.New()
	opts := stable.Options{FS: fs, Keep: 1, CompactEvery: 4}
	compactions := uint64(0)
	for inum := 1; inum <= 12; inum++ {
		st, err := stable.Open("mss/p000", 0, 2, opts)
		if err != nil {
			t.Fatal(err)
		}
		trig := protocol.Trigger{Pid: 0, Inum: inum}
		if err := st.SaveTentative(state(0, 2, inum), trig, 0); err != nil {
			t.Fatal(err)
		}
		if err := st.MakePermanent(trig, 0); err != nil {
			t.Fatal(err)
		}
		compactions += st.Metrics().Compactions
		if n := st.Metrics().ReplayedRecords; n > 1+2*3 {
			t.Fatalf("open before commit %d replayed %d records, want at most a snapshot and 3 commits' records", inum, n)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if compactions != 3 {
		t.Fatalf("%d compactions over 12 commits, one process each, want 3", compactions)
	}
}

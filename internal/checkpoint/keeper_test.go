package checkpoint_test

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"mutablecp/internal/checkpoint"
	"mutablecp/internal/chunkstore"
	"mutablecp/internal/protocol"
	"mutablecp/internal/stable/errfs"
)

// imageSource stamps each draw with its number: draw k is 8 KiB of
// byte k.
type imageSource struct{ draws int }

func (src *imageSource) draw(protocol.ProcessID) []byte {
	src.draws++
	return bytes.Repeat([]byte{byte(src.draws)}, 8<<10)
}

// keeperOver returns a Keeper for process 0 over an in-memory stable store
// and a chunk store on errfs, with its image source.
func keeperOver(t *testing.T) (*checkpoint.Keeper, *chunkstore.Store, *imageSource) {
	t.Helper()
	cs, err := chunkstore.Open("chunks", chunkstore.Options{FS: errfs.New(), ChunkBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cs.Close() })
	src := new(imageSource)
	return checkpoint.NewKeeper(0, checkpoint.NewStableStore(0), cs.Proc(0), src.draw), cs, src
}

// materialized reads the image cs restores process 0 to.
func materialized(t *testing.T, cs *chunkstore.Store) []byte {
	t.Helper()
	got, ok, err := cs.Materialize(0)
	if err != nil || !ok {
		t.Fatalf("materialize: ok=%v err=%v", ok, err)
	}
	return got
}

// TestKeeperPromotesTheImageAsOfTheMutableSave: a promoted mutable
// checkpoint uploads the image frozen at its save, not the one the process
// has mutated into by the promotion.
func TestKeeperPromotesTheImageAsOfTheMutableSave(t *testing.T) {
	k, cs, src := keeperOver(t)
	trig := protocol.Trigger{Pid: 1, Inum: 1}
	if err := k.SaveMutable(state(0, 2), trig, time.Second); err != nil {
		t.Fatal(err)
	}
	src.draw(0) // the process keeps running
	src.draw(0)
	if _, err := k.Promote(trig, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := k.Commit(trig, 3*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := materialized(t, cs); got[0] != 1 || src.draws != 3 {
		t.Fatalf("promoted image is draw %d of %d, want draw 1 (the mutable save's)", got[0], src.draws)
	}
	if k.Stable.Permanent().Trigger != trig {
		t.Fatalf("control plane committed %+v, want %+v", k.Stable.Permanent().Trigger, trig)
	}
}

// TestKeeperDropWithoutPayload: a tentative whose payload never made it
// (a crash between the two saves) drops cleanly.
func TestKeeperDropWithoutPayload(t *testing.T) {
	k, _, _ := keeperOver(t)
	trig := protocol.Trigger{Pid: 1, Inum: 1}
	if err := k.Stable.SaveTentative(state(0, 2), trig, time.Second); err != nil {
		t.Fatal(err)
	}
	if err := k.Drop(trig); err != nil {
		t.Fatalf("drop with no payload: %v", err)
	}
	if len(k.Stable.TentativeTriggers()) != 0 {
		t.Fatal("control-plane tentative survived the drop")
	}
}

// TestKeeperDropTentativesClearsBothPlanes: a payload saved without its
// control record is dropped too, or a reused trigger would collide with
// it (ErrPayloadPending).
func TestKeeperDropTentativesClearsBothPlanes(t *testing.T) {
	k, cs, src := keeperOver(t)
	both := protocol.Trigger{Pid: 1, Inum: 1}
	orphan := protocol.Trigger{Pid: 1, Inum: 2}
	if _, err := k.SaveTentative(state(0, 2), both, time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := cs.PutTentative(0, orphan, time.Second, src.draw(0)); err != nil {
		t.Fatal(err)
	}
	dropped, err := k.DropTentatives()
	if err != nil {
		t.Fatal(err)
	}
	if len(dropped) != 1 || dropped[0] != both {
		t.Errorf("dropped %v, want the control-plane tentative %+v", dropped, both)
	}
	if n := len(k.Stable.TentativeTriggers()); n != 0 {
		t.Errorf("%d control-plane tentatives left", n)
	}
	if trigs := cs.TentativeTriggers(0); len(trigs) != 0 {
		t.Errorf("tentative payloads left: %v", trigs)
	}
	if _, err := k.SaveTentative(state(0, 2), orphan, 2*time.Second); err != nil {
		t.Fatalf("reusing the orphan's trigger: %v", err)
	}
}

// TestKeeperCrashDiscardsFrozenImages: a crash loses the mutable copies
// and the images frozen with them. A mutable record put back afterwards
// without an image promotes with a fresh draw, not a pre-crash one.
func TestKeeperCrashDiscardsFrozenImages(t *testing.T) {
	k, cs, src := keeperOver(t)
	trig := protocol.Trigger{Pid: 1, Inum: 1}
	if err := k.SaveMutable(state(0, 2), trig, time.Second); err != nil {
		t.Fatal(err)
	}
	k.Crash()
	if _, err := k.Promote(trig, 2*time.Second); !errors.Is(err, checkpoint.ErrNoMutable) {
		t.Fatalf("promote after crash: %v, want ErrNoMutable", err)
	}
	if err := k.Mutable().Save(state(0, 2), trig, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Promote(trig, 3*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := k.Commit(trig, 4*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := materialized(t, cs); got[0] != 2 || src.draws != 2 {
		t.Fatalf("promotion after a crash uploaded draw %d of %d, want a fresh draw 2", got[0], src.draws)
	}
}

// TestKeeperCommitInDoubt: an in-doubt tentative whose payload made it
// commits as saved; one whose payload the crash lost commits with the
// current image, so the permanent checkpoint stays restorable.
func TestKeeperCommitInDoubt(t *testing.T) {
	k, cs, src := keeperOver(t)
	saved := protocol.Trigger{Pid: 1, Inum: 1}
	lost := protocol.Trigger{Pid: 1, Inum: 2}
	if _, err := k.SaveTentative(state(0, 2), saved, time.Second); err != nil {
		t.Fatal(err)
	}
	if err := k.CommitInDoubt(saved, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if src.draws != 1 {
		t.Fatalf("%d draws committing a saved payload, want 1", src.draws)
	}
	if err := k.Stable.SaveTentative(state(0, 2), lost, 3*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := k.CommitInDoubt(lost, 4*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := materialized(t, cs); got[0] != 2 {
		t.Fatalf("materialized draw %d after the re-save, want draw 2", got[0])
	}
	if k.Stable.Permanent().Trigger != lost {
		t.Fatalf("control plane committed %+v, want %+v", k.Stable.Permanent().Trigger, lost)
	}
}

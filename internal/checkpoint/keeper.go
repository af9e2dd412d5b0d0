package checkpoint

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"mutablecp/internal/protocol"
)

// Keeper is one process's checkpoint lifecycle (§3) over both planes:
// the control record in Stable, the process image in the optional
// Payload, and the mutable copy in local memory. It is the one place
// that ties an image to its control record, and it draws the image
// itself: a tentative saves both, a commit or drop mirrors onto both, and
// a mutable save freezes the image, which stays here until Promote
// uploads it with the tentative the mutable copy becomes.
//
// The volatile half (SaveMutable, DiscardMutable, Crash) is the MH's
// memory and touches no store; the durable half (SaveTentative, Commit,
// Drop, DropTentatives) is the MSS's storage and touches no memory, and
// Promote moves a mutable copy from the one to the other. A Keeper is not
// safe for concurrent use: each driver calls it from its one event loop,
// so a write has returned before the engine's next action. A driver
// reads Stable and Payload directly, and replaces both when the MSS's
// storage restarts.
type Keeper struct {
	Stable  Store
	Payload PayloadStore // nil: control-plane only

	image   func(protocol.ProcessID) []byte // steps the live process image
	mutable MutableStore
	frozen  map[protocol.Trigger][]byte // the image as of each mutable save
}

// NewKeeper returns proc's lifecycle over st and, when pay is non-nil,
// the payload plane, whose images image(proc) draws. A draw steps the
// image, so a Keeper draws once per tentative save, per mutable save,
// and per promotion of a mutable copy saved without an image.
func NewKeeper(proc protocol.ProcessID, st Store, pay PayloadStore, image func(protocol.ProcessID) []byte) *Keeper {
	return &Keeper{
		Stable:  st,
		Payload: pay,
		image:   image,
		mutable: MutableStore{proc: proc, recs: make(map[protocol.Trigger]Record)},
	}
}

// Mutable returns the mutable store.
func (k *Keeper) Mutable() *MutableStore { return &k.mutable }

// draw draws the image a tentative checkpoint taken now carries, or nil
// without a payload plane.
func (k *Keeper) draw() []byte {
	if k.Payload == nil {
		return nil
	}
	return k.image(k.mutable.proc)
}

// SaveMutable stores a mutable checkpoint for trig and freezes the image
// with it.
func (k *Keeper) SaveMutable(s protocol.State, trig protocol.Trigger, at time.Duration) error {
	if err := k.mutable.Save(s, trig, at); err != nil {
		return err
	}
	if k.Payload != nil {
		if k.frozen == nil {
			k.frozen = make(map[protocol.Trigger][]byte)
		}
		k.frozen[trig] = k.draw()
	}
	return nil
}

// Promote turns trig's mutable checkpoint into its tentative checkpoint
// and returns what the payload save cost. The image uploaded is the one
// frozen at the mutable save, or a fresh draw for a copy saved without
// one.
func (k *Keeper) Promote(trig protocol.Trigger, at time.Duration) (PayloadReceipt, error) {
	rec, err := k.mutable.Take(trig)
	if err != nil {
		return PayloadReceipt{}, err
	}
	img, ok := k.frozen[trig]
	delete(k.frozen, trig)
	if !ok {
		img = k.draw()
	}
	return k.saveTentative(rec.State, trig, at, img)
}

// DiscardMutable discards trig's mutable checkpoint and its image.
func (k *Keeper) DiscardMutable(trig protocol.Trigger) error {
	if _, err := k.mutable.Take(trig); err != nil {
		return err
	}
	delete(k.frozen, trig)
	return nil
}

// Crash loses the volatile half: every mutable checkpoint and its image.
func (k *Keeper) Crash() {
	k.mutable.Clear()
	k.frozen = nil
}

// SaveTentative records a tentative checkpoint for trig carrying the
// image drawn now and returns what the payload save cost (zero without a
// payload plane).
func (k *Keeper) SaveTentative(s protocol.State, trig protocol.Trigger, at time.Duration) (PayloadReceipt, error) {
	return k.saveTentative(s, trig, at, k.draw())
}

func (k *Keeper) saveTentative(s protocol.State, trig protocol.Trigger, at time.Duration, img []byte) (PayloadReceipt, error) {
	if err := k.Stable.SaveTentative(s, trig, at); err != nil || k.Payload == nil {
		return PayloadReceipt{}, err
	}
	rcpt, err := k.Payload.SavePayload(trig, at, img)
	if err != nil {
		return rcpt, fmt.Errorf("save payload: %w", err)
	}
	return rcpt, nil
}

// Commit makes trig's tentative checkpoint permanent on both planes.
func (k *Keeper) Commit(trig protocol.Trigger, at time.Duration) error {
	if err := k.Stable.MakePermanent(trig, at); err != nil || k.Payload == nil {
		return err
	}
	if err := k.Payload.CommitPayload(trig, at); err != nil {
		return fmt.Errorf("commit payload: %w", err)
	}
	return nil
}

// Drop discards trig's tentative checkpoint on both planes. A missing
// payload is no error: a crash may have landed between the two saves.
func (k *Keeper) Drop(trig protocol.Trigger) error {
	if err := k.Stable.DropTentative(trig); err != nil {
		return err
	}
	return k.dropPayload(trig)
}

func (k *Keeper) dropPayload(trig protocol.Trigger) error {
	if k.Payload == nil {
		return nil
	}
	if err := k.Payload.DropPayload(trig); err != nil && !errors.Is(err, ErrNoPayload) {
		return fmt.Errorf("drop payload: %w", err)
	}
	return nil
}

// DropTentatives discards every pending tentative on both planes, a
// payload whose control record never made it included: after a crash or
// a rollback their instances can never commit, and a leftover would
// collide when the resumed execution reuses the trigger. It returns the
// control-plane triggers it dropped.
func (k *Keeper) DropTentatives() ([]protocol.Trigger, error) {
	trigs := k.Stable.TentativeTriggers()
	for _, trig := range trigs {
		if err := k.Stable.DropTentative(trig); err != nil {
			return nil, err
		}
	}
	if k.Payload != nil {
		for _, trig := range k.Payload.TentativePayloads() {
			if err := k.dropPayload(trig); err != nil {
				return nil, err
			}
		}
	}
	return trigs, nil
}

// CommitInDoubt commits a tentative checkpoint a crash left in doubt,
// once its instance is known to have committed. If the crash landed
// before the payload save, the current image is saved under trig so the
// checkpoint stays restorable, though newer than the state it names.
func (k *Keeper) CommitInDoubt(trig protocol.Trigger, at time.Duration) error {
	if k.Payload != nil && !slices.Contains(k.Payload.TentativePayloads(), trig) {
		if _, err := k.Payload.SavePayload(trig, at, k.draw()); err != nil {
			return fmt.Errorf("re-save payload: %w", err)
		}
	}
	return k.Commit(trig, at)
}

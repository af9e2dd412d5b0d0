package checkpoint_test

import (
	"testing"

	"mutablecp/internal/checkpoint"
	"mutablecp/internal/protocol"
	"mutablecp/internal/xrand"
)

// Model-based random testing: drive StableStore with random operation
// sequences and mirror every operation in a trivial map+slice model; the
// two must agree after every step.

type stableModel struct {
	permanent []int // csn history
	tentative map[protocol.Trigger]int
	retain    int // 0 keeps everything
}

func TestStableStoreAgainstModel(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := xrand.New(seed * 7)
		st := checkpoint.NewStableStore(0)
		model := &stableModel{permanent: []int{0}, tentative: map[protocol.Trigger]int{}}
		triggers := []protocol.Trigger{{Pid: 1, Inum: 1}, {Pid: 2, Inum: 1}, {Pid: 1, Inum: 2}}
		csn := 0
		for step := 0; step < 300; step++ {
			trig := triggers[rng.Intn(len(triggers))]
			switch rng.Intn(4) {
			case 0: // save tentative
				csn++
				s := state(0, 2)
				s.CSN = csn
				err := st.SaveTentative(s, trig, 0)
				_, exists := model.tentative[trig]
				if exists != (err != nil) {
					t.Fatalf("seed %d step %d: save err=%v model exists=%v", seed, step, err, exists)
				}
				if err == nil {
					model.tentative[trig] = csn
				} else {
					csn-- // not stored
				}
			case 1: // commit
				err := st.MakePermanent(trig, 0)
				v, exists := model.tentative[trig]
				if exists != (err == nil) {
					t.Fatalf("seed %d step %d: commit err=%v model exists=%v", seed, step, err, exists)
				}
				if err == nil {
					model.permanent = append(model.permanent, v)
					delete(model.tentative, trig)
					if k := model.retain; k > 0 && len(model.permanent) > k {
						model.permanent = model.permanent[len(model.permanent)-k:]
					}
				}
			case 2: // drop
				err := st.DropTentative(trig)
				_, exists := model.tentative[trig]
				if exists != (err == nil) {
					t.Fatalf("seed %d step %d: drop err=%v model exists=%v", seed, step, err, exists)
				}
				delete(model.tentative, trig)
			case 3: // retention bound, applied at the next commit
				model.retain = rng.Intn(4)
				st.SetRetain(model.retain)
			}
			// Invariants after every step.
			if len(st.TentativeTriggers()) != len(model.tentative) {
				t.Fatalf("seed %d step %d: tentative count %d vs model %d",
					seed, step, len(st.TentativeTriggers()), len(model.tentative))
			}
			hist := st.History()
			if len(hist) != len(model.permanent) {
				t.Fatalf("seed %d step %d: history %d vs model %d",
					seed, step, len(hist), len(model.permanent))
			}
			for i, rec := range hist {
				if rec.State.CSN != model.permanent[i] {
					t.Fatalf("seed %d step %d: history[%d]=%d vs model %d",
						seed, step, i, rec.State.CSN, model.permanent[i])
				}
			}
			if st.Permanent().State.CSN != model.permanent[len(model.permanent)-1] {
				t.Fatalf("seed %d step %d: latest permanent mismatch", seed, step)
			}
		}
	}
}

func TestMutableStoreAgainstModel(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := xrand.New(seed * 13)
		ms := checkpoint.NewMutableStore(0)
		model := map[protocol.Trigger]int{}
		triggers := []protocol.Trigger{{Pid: 1, Inum: 1}, {Pid: 2, Inum: 1}, {Pid: 3, Inum: 2}}
		csn := 0
		for step := 0; step < 300; step++ {
			trig := triggers[rng.Intn(len(triggers))]
			switch rng.Intn(3) {
			case 0: // save
				csn++
				s := state(0, 2)
				s.CSN = csn
				err := ms.Save(s, trig, 0)
				_, exists := model[trig]
				if exists != (err != nil) {
					t.Fatalf("seed %d step %d: save err=%v exists=%v", seed, step, err, exists)
				}
				if err == nil {
					model[trig] = csn
				}
			case 1: // take
				rec, err := ms.Take(trig)
				v, exists := model[trig]
				if exists != (err == nil) {
					t.Fatalf("seed %d step %d: take err=%v exists=%v", seed, step, err, exists)
				}
				if err == nil {
					if rec.State.CSN != v {
						t.Fatalf("seed %d step %d: took csn %d want %d", seed, step, rec.State.CSN, v)
					}
					delete(model, trig)
				}
			case 2: // get (non-destructive)
				rec, ok := ms.Get(trig)
				v, exists := model[trig]
				if ok != exists || (ok && rec.State.CSN != v) {
					t.Fatalf("seed %d step %d: get mismatch", seed, step)
				}
			}
			if ms.Len() != len(model) {
				t.Fatalf("seed %d step %d: len %d vs model %d", seed, step, ms.Len(), len(model))
			}
		}
	}
}

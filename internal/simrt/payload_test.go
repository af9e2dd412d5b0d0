package simrt_test

import (
	"testing"
	"time"

	"mutablecp/internal/checkpoint"
	"mutablecp/internal/chunkstore"
	"mutablecp/internal/core"
	"mutablecp/internal/protocol"
	"mutablecp/internal/recovery"
	"mutablecp/internal/simrt"
	"mutablecp/internal/stable/errfs"
	"mutablecp/internal/workload"
)

// TestPayloadPlane runs the paper's protocol with the data plane
// attached: every stable checkpoint also saves the live process image
// into a shared MSS chunk store, commits follow the control plane's
// MakePermanent, and the stable transfer is charged the deduplicated
// NewBytes. After a few simulated hours the payload plane must be
// consistent with the control plane and the incremental saving must be
// real on a skewed-dirty-page workload.
func TestPayloadPlane(t *testing.T) {
	const (
		procs = 4
		chunk = 1 << 10
	)
	fs := errfs.New()
	store, err := chunkstore.Open("chunks", chunkstore.Options{
		FS: fs, ChunkBytes: chunk, Keep: 2,
	})
	if err != nil {
		t.Fatalf("open chunk store: %v", err)
	}
	defer store.Close()
	images := workload.NewImages(workload.ImagesConfig{
		Procs: procs, Bytes: 64 << 10, PageBytes: chunk,
		Profile: workload.ProfileSkewed, Seed: 3,
	})
	c, err := simrt.New(simrt.Config{
		N:                   procs,
		Seed:                42,
		NewEngine:           func(env protocol.Env) protocol.Engine { return core.New(env) },
		ScheduleCheckpoints: true,
		SingleInitiation:    true,
		CheckpointInterval:  600 * time.Second,
		NewPayload: func(pid protocol.ProcessID, n int) (checkpoint.PayloadStore, error) {
			return store.Proc(pid), nil
		},
		Images: images.Image,
	})
	if err != nil {
		t.Fatalf("new cluster: %v", err)
	}
	gen := &simrt.PointToPoint{Rate: 0.1}
	gen.Install(c)
	c.Start()
	if err := c.Run(4 * time.Hour); err != nil {
		t.Fatalf("run: %v", err)
	}
	gen.Stop()
	c.StopTimers()
	if err := c.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, err := range c.Errors() {
		t.Errorf("cluster error: %v", err)
	}

	m := c.Metrics()
	if m.PayloadSaves == 0 || m.PayloadSaves != m.TotalTentative {
		t.Errorf("payload saves (%d) must track tentative checkpoints (%d)",
			m.PayloadSaves, m.TotalTentative)
	}
	if m.PayloadLogicalBytes == 0 || m.PayloadNewBytes >= m.PayloadLogicalBytes {
		t.Errorf("no incremental saving: new=%d logical=%d", m.PayloadNewBytes, m.PayloadLogicalBytes)
	}
	ratio := float64(m.PayloadNewBytes) / float64(m.PayloadLogicalBytes)
	if ratio > 0.5 {
		t.Errorf("skewed workload should dedup well, got new/logical = %.2f", ratio)
	}
	if m.PayloadDedupChunks == 0 {
		t.Error("no chunk was ever deduplicated")
	}

	// Control and data plane must agree: every process with a permanent
	// control-plane checkpoint has a materializable permanent payload.
	if err := recovery.VerifyPayloads(store, procs); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < procs; p++ {
		pid := protocol.ProcessID(p)
		ctl := c.Proc(pid).Stable().Permanent()
		img, ok, err := store.Materialize(pid)
		if err != nil {
			t.Fatalf("P%d materialize: %v", pid, err)
		}
		if ctl.Trigger.IsNone() {
			continue // never checkpointed (disconnected the whole run etc.)
		}
		if !ok {
			t.Errorf("P%d has a permanent control checkpoint %+v but no payload", pid, ctl.Trigger)
			continue
		}
		if len(img) == 0 {
			t.Errorf("P%d permanent payload is empty", pid)
		}
		pm, _ := store.Permanent(pid)
		if pm.Trigger != ctl.Trigger {
			t.Errorf("P%d planes disagree: payload %+v vs control %+v", pid, pm.Trigger, ctl.Trigger)
		}
	}
	// No tentative payload may outlive the drained run: the control plane
	// resolved every instance, so the data plane must be fully resolved
	// too.
	for p := 0; p < procs; p++ {
		if trigs := store.TentativeTriggers(protocol.ProcessID(p)); len(trigs) != 0 {
			t.Errorf("P%d left %d unresolved tentative payloads: %v", p, len(trigs), trigs)
		}
	}
	t.Logf("saves=%d logical=%dKiB new=%dKiB ratio=%.3f dedup=%d",
		m.PayloadSaves, m.PayloadLogicalBytes>>10, m.PayloadNewBytes>>10,
		ratio, m.PayloadDedupChunks)
}

// TestPayloadConfigValidation covers the constructor's payload checks.
func TestPayloadConfigValidation(t *testing.T) {
	eng := func(env protocol.Env) protocol.Engine { return core.New(env) }
	if _, err := simrt.New(simrt.Config{
		NewEngine: eng,
		Images:    func(pid protocol.ProcessID) []byte { return nil },
	}); err == nil {
		t.Error("Images without NewPayload accepted")
	}
	if _, err := simrt.New(simrt.Config{
		NewEngine: eng,
		NewPayload: func(pid protocol.ProcessID, n int) (checkpoint.PayloadStore, error) {
			return nil, nil
		},
	}); err == nil {
		t.Error("NewPayload without Images accepted")
	}
}

package recovery_test

import (
	"testing"
	"time"

	"mutablecp/internal/checkpoint"
	"mutablecp/internal/chunkstore"
	"mutablecp/internal/protocol"
	"mutablecp/internal/recovery"
	"mutablecp/internal/simrt"
	"mutablecp/internal/stable/errfs"
	"mutablecp/internal/workload"
)

// TestRollbackRecoveryRestoresPayload: with the data plane attached, a
// coordinated rollback restores every process's image from the chunk
// store — the materialized bytes reach the workload through the
// RestoreImage hook, and the priced transfer is the manifest's deduped
// cost, not the fixed control-plane constant.
func TestRollbackRecoveryRestoresPayload(t *testing.T) {
	const procs = 4
	fs := errfs.New()
	store, err := chunkstore.Open("chunks", chunkstore.Options{
		FS: fs, ChunkBytes: 1 << 10, Keep: 2,
	})
	if err != nil {
		t.Fatalf("open chunk store: %v", err)
	}
	defer store.Close()
	images := workload.NewImages(workload.ImagesConfig{
		Procs: procs, Bytes: 32 << 10, PageBytes: 1 << 10,
		Profile: workload.ProfileSkewed, Seed: 11,
	})
	restored := make(map[protocol.ProcessID][]byte)
	cluster, err := simrt.New(simrt.Config{
		N:                   procs,
		Seed:                17,
		NewEngine:           mutableEngine,
		CheckpointInterval:  60 * time.Second,
		ScheduleCheckpoints: true,
		SingleInitiation:    true,
		NewPayload: func(pid protocol.ProcessID, n int) (checkpoint.PayloadStore, error) {
			return store.Proc(pid), nil
		},
		Images: images.Image,
		RestoreImage: func(pid protocol.ProcessID, img []byte) {
			restored[pid] = append([]byte(nil), img...)
			images.Restore(pid, img)
		},
	})
	if err != nil {
		t.Fatalf("new cluster: %v", err)
	}
	exec, err := recovery.NewExecutor(cluster, recovery.ModeRollback)
	if err != nil {
		t.Fatalf("new executor: %v", err)
	}
	var rep *recovery.Report
	hook := func(pid protocol.ProcessID) error {
		// Snapshot what a restore right now must hand back, then recover.
		r, err := exec.Recover(pid)
		rep = r
		return err
	}
	plans := []simrt.CrashPlan{{Proc: 2, At: 290 * time.Second, RestartAfter: 30 * time.Second}}
	if err := cluster.InstallCrashes(plans, hook); err != nil {
		t.Fatalf("install crashes: %v", err)
	}
	gen := &simrt.PointToPoint{Rate: 1}
	gen.Install(cluster)
	cluster.Start()
	if err := cluster.Run(600 * time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	gen.Stop()
	cluster.StopTimers()
	if err := cluster.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, err := range cluster.Errors() {
		t.Errorf("cluster error: %v", err)
	}
	if rep == nil {
		t.Fatal("recovery never ran")
	}

	// Rollback mode restores everyone; every process with a committed
	// payload must have received its materialized image.
	for p := 0; p < procs; p++ {
		pid := protocol.ProcessID(p)
		if _, ok := store.Permanent(pid); !ok {
			continue
		}
		img, gotIt := restored[pid]
		if !gotIt {
			t.Errorf("P%d was rolled back but its image was never restored", pid)
			continue
		}
		if len(img) != 32<<10 {
			t.Errorf("P%d restored %d bytes, want the full %d-byte image", pid, len(img), 32<<10)
		}
		// The priced restore must exist and be bounded by the image size.
		cost, ok := store.RestoreCost(pid)
		if !ok || cost == 0 || cost > 32<<10 {
			t.Errorf("P%d restore cost = %d,%v, want (0, %d]", pid, cost, ok, 32<<10)
		}
	}
	if err := recovery.VerifyPayloads(store, procs); err != nil {
		t.Fatal(err)
	}
}

package daemon_test

import (
	"testing"
	"time"

	"mutablecp/internal/chunkstore"
	"mutablecp/internal/daemon"
	"mutablecp/internal/protocol"
)

// storeStats fetches one daemon's payload stats over the control plane,
// failing the test when the daemon has no payload store or its
// daemon-side integrity audit rejects the on-disk chunks.
func storeStats(t testing.TB, cfg *daemon.Config, id int) chunkstore.Stats {
	t.Helper()
	cl := ctlClient(t, cfg, id)
	stats, ok, err := cl.Store()
	if err != nil {
		t.Fatalf("P%d store audit: %v", id, err)
	}
	if !ok {
		t.Fatalf("P%d reports no payload store", id)
	}
	return stats
}

// TestDaemonPayloadPlane drives the payload plane through real daemons:
// every committed checkpoint must leave a permanent payload manifest in
// each daemon's chunk store, a second commit must dedup against the
// first, and a daemon restart must come back with the committed payload
// intact (audited) and no stale tentative manifests.
func TestDaemonPayloadPlane(t *testing.T) {
	cfg := newClusterConfig(t, 3, 2*time.Second)
	cfg.PayloadBytes = 32 << 10
	cfg.PayloadChunkBytes = 2 << 10
	cfg.PayloadProfile = "skewed"

	daemons := make([]*daemon.Daemon, 3)
	for id := range daemons {
		d, err := daemon.New(cfg, id)
		if err != nil {
			t.Fatalf("start P%d: %v", id, err)
		}
		daemons[id] = d
	}
	defer func() {
		for _, d := range daemons {
			if d != nil {
				d.Stop()
			}
		}
	}()
	if err := daemon.WaitClusterReady(cfg, 15*time.Second); err != nil {
		t.Fatal(err)
	}

	// First commit: every daemon stores its image as a permanent payload.
	crossTraffic(t, cfg, 3)
	quiesce(t, cfg, 10*time.Second)
	if committed, err := ctlClient(t, cfg, 0).Checkpoint(0); err != nil {
		t.Fatalf("checkpoint 1: %v", err)
	} else if !committed {
		t.Fatal("checkpoint 1 aborted on a healthy cluster")
	}
	// The initiator returns its verdict before the commit frames reach
	// the participants; read them once the frames are acked.
	quiesce(t, cfg, 10*time.Second)
	for id := range daemons {
		st := storeStats(t, cfg, id)
		if st.Permanents < 1 {
			t.Fatalf("P%d: no permanent payload after commit (stats %+v)", id, st)
		}
		if st.Tentatives != 0 {
			t.Errorf("P%d: %d tentative payloads linger after commit", id, st.Tentatives)
		}
		if st.Saves < 1 || st.LogicalBytes == 0 {
			t.Errorf("P%d: no payload bytes accounted (stats %+v)", id, st)
		}
	}

	// Second commit: the skewed image barely changed, so content
	// addressing must dedup most chunks against the first payload.
	crossTraffic(t, cfg, 3)
	quiesce(t, cfg, 10*time.Second)
	if committed, err := ctlClient(t, cfg, 1).Checkpoint(0); err != nil {
		t.Fatalf("checkpoint 2: %v", err)
	} else if !committed {
		t.Fatal("checkpoint 2 aborted on a healthy cluster")
	}
	quiesce(t, cfg, 10*time.Second)
	for id := range daemons {
		st := storeStats(t, cfg, id)
		if st.DedupChunks == 0 {
			t.Errorf("P%d: second commit deduped nothing (stats %+v)", id, st)
		}
		if st.NewBytes >= st.LogicalBytes {
			t.Errorf("P%d: incremental storage wrote %d bytes for %d logical",
				id, st.NewBytes, st.LogicalBytes)
		}
	}

	// Restart P2: the committed payload must survive on disk, pass the
	// replay audit, and any stale tentative manifests must be gone.
	daemons[2].Stop()
	daemons[2] = nil
	d, err := daemon.New(cfg, 2)
	if err != nil {
		t.Fatalf("restart P2: %v", err)
	}
	daemons[2] = d
	if err := daemon.WaitClusterReady(cfg, 15*time.Second); err != nil {
		t.Fatalf("cluster after restart: %v", err)
	}
	st := storeStats(t, cfg, 2)
	if st.Permanents < 1 {
		t.Fatalf("P2: permanent payload lost across restart (stats %+v)", st)
	}
	if st.Tentatives != 0 {
		t.Errorf("P2: %d stale tentative payloads survived the restart", st.Tentatives)
	}

	// The restarted cluster keeps committing payloads.
	crossTraffic(t, cfg, 2)
	quiesce(t, cfg, 10*time.Second)
	if committed, err := ctlClient(t, cfg, 2).Checkpoint(0); err != nil {
		t.Fatalf("post-restart checkpoint: %v", err)
	} else if !committed {
		t.Fatal("post-restart checkpoint aborted")
	}
	quiesce(t, cfg, 10*time.Second)
	after := storeStats(t, cfg, 2)
	if after.Permanents <= st.Permanents && after.Saves <= st.Saves {
		t.Errorf("P2: no new payload after the post-restart commit (before %+v, after %+v)", st, after)
	}

	// The on-disk chunk store itself must reopen clean after shutdown.
	for id, d := range daemons {
		d.Stop()
		daemons[id] = nil
	}
	for id := 0; id < cfg.N(); id++ {
		cs, err := chunkstore.Open(chunkstore.Dir(cfg.StoreDir(id)), cfg.ChunkOptions())
		if err != nil {
			t.Fatalf("reopen P%d chunk store: %v", id, err)
		}
		if err := cs.Verify(protocol.ProcessID(id)); err != nil {
			t.Errorf("P%d offline payload audit: %v", id, err)
		}
		if _, _, err := cs.Materialize(protocol.ProcessID(id)); err != nil {
			t.Errorf("P%d offline payload restore: %v", id, err)
		}
		if err := cs.Close(); err != nil {
			t.Errorf("close P%d chunk store: %v", id, err)
		}
	}
}

package harness

// Payload-plane wiring for experiments: when Config.PayloadBytes is
// positive the run attaches the content-addressed chunk store as the
// checkpoint data plane — every stable checkpoint saves a synthetic
// process image (stepped by the configured mutation profile), commits
// and drops shadow the control plane, and the run's verdict includes a
// full end-of-run payload audit (every retained manifest resolves to
// intact chunks; the newest permanent image materializes).

import (
	"fmt"
	"path/filepath"

	"mutablecp/internal/checkpoint"
	"mutablecp/internal/chunkstore"
	"mutablecp/internal/protocol"
	"mutablecp/internal/recovery"
	"mutablecp/internal/simrt"
	"mutablecp/internal/stable/errfs"
	"mutablecp/internal/workload"
)

// openPayload opens the chunk store for cfg and wires it and the image
// source into simCfg, or returns nil when the run is control-plane only.
// With PayloadDir empty the chunk segments live on an in-memory errfs
// (fast, hermetic); a directory makes them real files, one tree per seed
// so sweep seeds never share a segment log.
func openPayload(cfg Config, simCfg *simrt.Config) (*chunkstore.Store, error) {
	if cfg.PayloadBytes <= 0 {
		return nil, nil
	}
	opts := chunkstore.Options{
		ChunkBytes: cfg.PayloadChunkBytes,
		Mode:       cfg.PayloadMode,
		Keep:       1,
	}
	root := "payload"
	if cfg.PayloadDir != "" {
		root = filepath.Join(cfg.PayloadDir, fmt.Sprintf("payload-seed-%d", cfg.Seed))
	} else {
		opts.FS = errfs.New()
	}
	store, err := chunkstore.Open(chunkstore.Dir(root), opts)
	if err != nil {
		return nil, fmt.Errorf("harness: open payload store: %w", err)
	}
	images := workload.NewImages(workload.ImagesConfig{
		Procs:     cfg.N,
		Bytes:     cfg.PayloadBytes,
		PageBytes: cfg.PayloadChunkBytes,
		Profile:   cfg.PayloadProfile,
		Seed:      cfg.Seed,
	})
	simCfg.Images = images.Image
	simCfg.RestoreImage = images.Restore
	simCfg.NewPayload = func(pid protocol.ProcessID, _ int) (checkpoint.PayloadStore, error) {
		return store.Proc(pid), nil
	}
	return store, nil
}

// finishPayload audits the payload plane into the result and closes the
// store.
func finishPayload(store *chunkstore.Store, res *Result) {
	if store == nil {
		return
	}
	res.PayloadVerifyErr = recovery.VerifyPayloads(store, res.Config.N)
	res.PayloadStats = store.Stats()
	if err := store.Close(); err != nil && res.PayloadVerifyErr == nil {
		res.PayloadVerifyErr = fmt.Errorf("harness: close payload store: %w", err)
	}
	res.PayloadVerifyOK = res.PayloadVerifyErr == nil
}

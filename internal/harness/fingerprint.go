package harness

import (
	"fmt"

	"mutablecp/internal/trace"
)

// TraceFingerprint runs one experiment with a structured trace attached
// and digests the complete execution (simrt.Cluster.Digest): every trace
// event string in order, each process's final channel counters and engine
// state, the permanent checkpoint history, and the simulated event count.
// Two runs with equal fingerprints executed byte-identically, which makes
// the digest the equivalence oracle for engine-representation refactors:
// any change to message contents, checkpoint decisions, trace formatting,
// or state accessors shows up as a different fingerprint for the same seed.
func TraceFingerprint(cfg Config) (string, error) {
	return fingerprint(cfg, trace.New())
}

// StateFingerprint digests the final cluster state — per-process channel
// counters, engine state, permanent checkpoint history, and the executed
// event count — without requiring a trace. It is the equivalence oracle
// for the parallel kernel: cell mode rejects tracing (there is no global
// event order to record), but the sharded kernel's barrier merge makes
// the execution itself worker-count invariant, so the final state digest
// for CellWorkers=K must be byte-identical to the CellWorkers=1
// reference run of the same configuration and seed.
func StateFingerprint(cfg Config) (string, error) {
	return fingerprint(cfg, nil)
}

func fingerprint(cfg Config, tl *trace.Log) (string, error) {
	cluster, pr, err := runCluster(cfg.defaults(), tl)
	if err != nil {
		return "", err
	}
	defer pr.close()
	return fmt.Sprintf("%016x", cluster.Digest()), nil
}

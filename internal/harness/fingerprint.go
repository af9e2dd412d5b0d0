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
	r, err := drive(cfg.defaults(), trace.New())
	if err != nil {
		return "", err
	}
	if r.payload != nil {
		defer r.payload.Close() //nolint:errcheck
	}
	return fmt.Sprintf("%016x", r.cluster.Digest()), nil
}

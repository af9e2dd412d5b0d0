package recovery

import (
	"fmt"

	"mutablecp/internal/chunkstore"
	"mutablecp/internal/protocol"
)

// VerifyPayloads audits the checkpoint payload plane behind a recovery
// line: for each of the n processes, every manifest the store retains
// must resolve to intact, hash-verified chunks, and the newest permanent
// payload — the image a rollback right now would restore — must
// materialize to exactly the length its manifest promises. A control
// plane that names a line whose payloads cannot be read is a recovery
// protocol in name only; this is the check that keeps the two planes
// honest with each other.
func VerifyPayloads(s *chunkstore.Store, n int) error {
	for p := 0; p < n; p++ {
		proc := protocol.ProcessID(p)
		if err := s.Verify(proc); err != nil {
			return fmt.Errorf("recovery: payload verify P%d: %w", proc, err)
		}
		if _, _, err := s.Materialize(proc); err != nil {
			return fmt.Errorf("recovery: payload restore P%d: %w", proc, err)
		}
	}
	return nil
}

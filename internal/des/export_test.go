package des

// Tombstones reports how many cancelled events still occupy heap slots
// awaiting lazy removal; compaction keeps it bounded by Pending(). The
// leak test reads it.
func (s *Simulator) Tombstones() int { return s.dead }

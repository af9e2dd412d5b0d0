package chunkstore

// Compaction: the chunk store's garbage collector. This file decides
// when, and writes the live set — every chunk reachable from a retained
// permanent manifest or a pending tentative, followed by the manifests
// themselves — as the rewrite phase
// of seglog.Compact. The log does the rest: it rolls first, fsyncs the
// rewrite, publishes a wire.ChunkOpReset boundary naming the first
// rewritten segment, and only once that is durable removes the
// superseded segments, so a crash anywhere in between leaves either the
// old chain or a complete new one, never a half state.

import (
	"fmt"
	"sort"

	"mutablecp/internal/protocol"
	"mutablecp/internal/wire"
)

const (
	// garbageRatio triggers compaction after a commit when unreachable
	// bytes reach this fraction of the on-disk payload bytes.
	garbageRatio = 0.5
	// ctrlCompactFactor bounds control-record (manifest/commit/drop) log
	// growth between compactions, in segments: even a workload whose
	// payload never changes must not grow the chain without bound.
	ctrlCompactFactor = 4
)

// maybeCompactLocked runs compaction when unreachable payload bytes
// reach garbageRatio of the on-disk payload bytes, or when control
// records alone have outgrown the chain.
func (s *Store) maybeCompactLocked() error {
	garbage := s.diskBytes - s.liveBytes
	if garbage > 0 && float64(garbage) >= garbageRatio*float64(s.diskBytes) {
		return s.compactLocked()
	}
	if s.ctrlBytes > ctrlCompactFactor*s.opts.SegmentBytes {
		return s.compactLocked()
	}
	return nil
}

// Compact forces a compaction cycle.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usable(); err != nil {
		return err
	}
	return s.compactLocked()
}

func (s *Store) compactLocked() error {
	// Deterministic manifest order: procs ascending, permanents oldest
	// first, then tentatives in trigger order.
	procs := make([]protocol.ProcessID, 0, len(s.perm)+len(s.tent))
	seen := make(map[protocol.ProcessID]bool)
	for p := range s.perm {
		if !seen[p] {
			procs = append(procs, p)
			seen[p] = true
		}
	}
	for p := range s.tent {
		if !seen[p] {
			procs = append(procs, p)
			seen[p] = true
		}
	}
	sort.Ints(procs)

	// The live set goes to the log as one batch: every chunk first reached
	// by a manifest, then that manifest.
	newIdx := make(map[wire.ChunkHash]*chunkInfo)
	var newDisk int64
	var batch []byte
	var frames []*chunkInfo // one per frame of batch, nil for a manifest
	copyChunks := func(m *Manifest) error {
		for _, h := range m.Hashes {
			if newIdx[h] != nil {
				continue
			}
			old := s.chunks[h]
			if old == nil {
				return fmt.Errorf("chunkstore: compact: manifest P%d %+v references missing chunk %x", m.Proc, m.Trigger, h[:8])
			}
			data, err := s.readChunkLocked(h)
			if err != nil {
				return err
			}
			if batch, err = wire.AppendChunkRecord(batch, &wire.ChunkRecord{Op: wire.ChunkOpPut, Proc: old.owner, Hash: h, Payload: data}); err != nil {
				return err
			}
			info := &chunkInfo{size: len(data), owner: old.owner}
			newIdx[h] = info
			frames = append(frames, info)
			newDisk += int64(len(data))
		}
		return nil
	}
	writeManifest := func(m *Manifest, status uint8) error {
		var err error
		batch, err = wire.AppendChunkRecord(batch, &wire.ChunkRecord{
			Op: wire.ChunkOpManifest, Proc: m.Proc, Trigger: m.Trigger, At: m.At,
			Status: status, ChunkBytes: m.ChunkBytes, Length: m.Length, Hashes: m.Hashes,
		})
		frames = append(frames, nil)
		return err
	}
	rewrite := func() error {
		for _, p := range procs {
			for _, m := range s.perm[p] {
				if err := copyChunks(m); err != nil {
					return err
				}
				if err := writeManifest(m, statusPermanent); err != nil {
					return err
				}
			}
			for _, trig := range s.tentTriggersLocked(p) {
				m := s.tent[p][trig]
				if err := copyChunks(m); err != nil {
					return err
				}
				if err := writeManifest(m, statusTentative); err != nil {
					return err
				}
			}
		}
		pos, err := s.log.AppendBatch(batch)
		if err != nil {
			return err
		}
		for i, info := range frames {
			if info != nil {
				info.seg, info.off = pos[i].Segment, pos[i].Offset
			}
		}
		return nil
	}
	if err := s.log.Compact(rewrite); err != nil {
		return err
	}

	s.chunks = newIdx
	s.diskBytes = newDisk
	s.ctrlBytes = 0
	return s.rebuildRefs()
}

// Package chunkstore is the checkpoint data plane: a content-addressed
// chunk store in the style of stdchk. A process image is split into
// fixed-size chunks, each addressed by its SHA-256; a per-checkpoint
// manifest records the hash sequence. Successive checkpoints of the same
// process dedup automatically — only chunks whose content changed are
// written (incremental checkpointing). Every indexed chunk is stored
// whole, so reading one is reading one record.
//
// Durability is internal/seglog's, the segment log internal/stable also
// stands on: single-write CRC-framed appends with the commit record as
// the commit point, one open-time recovery rule, poisoning after an I/O
// error, and the errfs power-failure gauntlet over all of it. Garbage
// collection is refcount-based and tied to the paper's discard rule: a
// chunk is live while any retained manifest (permanent history bounded
// by Keep, plus pending tentatives) can reach it; compaction rewrites
// exactly the live set behind a wire.ChunkOpReset boundary and the log
// removes the superseded segments.
package chunkstore

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"mutablecp/internal/checkpoint"
	"mutablecp/internal/protocol"
	"mutablecp/internal/seglog"
	"mutablecp/internal/wire"
)

// Mode names the store's one payload encoding, content-addressed
// incremental saves. It remains only so daemon.Config.PayloadMode's
// one accepted value has a name.
type Mode int

// ModeIncremental is the one mode: a chunk already present under the
// same hash is not written again.
const ModeIncremental Mode = 0

// String names the mode.
func (Mode) String() string { return "incremental" }

// Manifest statuses persisted in wire.ChunkRecord.Status.
const (
	statusTentative = uint8(checkpoint.StatusTentative)
	statusPermanent = uint8(checkpoint.StatusPermanent)
)

// Options configures a chunk store.
type Options struct {
	// FS is the filesystem seam; nil means the real disk.
	FS seglog.FS
	// Sync is the fsync discipline: the commit marker is the durable
	// point under SyncOnCommit.
	Sync seglog.SyncPolicy
	// ChunkBytes is the fixed chunk size (default 64 KiB). Must leave
	// room inside wire.MaxFrame for framing overhead.
	ChunkBytes int
	// Keep bounds the permanent manifest history per process (the
	// paper's discard rule); 0 keeps everything.
	Keep int
	// SegmentBytes is the roll threshold (default 8 MiB).
	SegmentBytes int64
}

const (
	defaultChunkBytes   = 64 << 10
	defaultSegmentBytes = 8 << 20
	maxChunkBytes       = wire.MaxFrame / 2
)

func (o Options) defaults() Options {
	if o.ChunkBytes <= 0 {
		o.ChunkBytes = defaultChunkBytes
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = defaultSegmentBytes
	}
	if o.Keep < 0 {
		o.Keep = 0
	}
	return o
}

// Chunk-store errors.
var (
	ErrClosed   = errors.New("chunkstore: store closed")
	ErrBadChunk = errors.New("chunkstore: chunk content does not match its hash")
)

// Manifest is one checkpoint payload: the ordered chunk hashes of a
// process image.
type Manifest struct {
	Proc       protocol.ProcessID
	Trigger    protocol.Trigger
	At         time.Duration
	ChunkBytes int
	Length     int64
	Hashes     []wire.ChunkHash
}

// chunkInfo locates one stored chunk and tracks its liveness.
type chunkInfo struct {
	refs int64  // references from retained manifests
	size int    // chunk length, as stored on disk
	seg  string // segment holding the record
	off  int64  // frame start offset within seg
	// owner is the process whose save first stored the chunk, persisted
	// in the record's Proc field so the self/cross dedup split survives
	// recovery. Records from before owner tagging replay as process 0.
	owner protocol.ProcessID
}

// Stats is a point-in-time summary of the store, plain data the
// daemon's control RPC carries field by field.
type Stats struct {
	Segments   int
	Chunks     int   // indexed chunks, including unreferenced-but-revivable ones
	LiveChunks int   // chunks reachable from a retained manifest
	LiveBytes  int64 // stored payload bytes reachable from retained manifests
	DiskBytes  int64 // stored payload bytes on disk, including garbage
	Permanents int
	Tentatives int

	Saves        uint64
	LogicalBytes uint64 // image bytes presented to the store
	NewBytes     uint64 // chunk/manifest bytes actually appended
	NewChunks    uint64
	DedupChunks  uint64
	// DedupChunks split by who stored the matching chunk first: a hit on
	// the saving process's own earlier chunk (temporal locality) vs. a
	// hit on another process's chunk (content shared across processes).
	SelfDedupChunks  uint64
	CrossDedupChunks uint64

	seglog.Metrics // the log's disk counters
}

// GarbageBytes reports stored payload bytes no retained manifest reaches.
func (st Stats) GarbageBytes() int64 { return st.DiskBytes - st.LiveBytes }

// lastImage is a private copy of the image a process saved last, with
// its chunk hashes, so the next save hashes only the chunks that changed.
type lastImage struct {
	image  []byte
	hashes []wire.ChunkHash
}

// Store is one MSS's content-addressed chunk store. It is safe for
// concurrent use.
type Store struct {
	// mu, the single index mutex, is held across every operation, the
	// log's fsync included, so operations never interleave.
	mu   sync.Mutex
	opts Options
	log  *seglog.Log

	chunks map[wire.ChunkHash]*chunkInfo
	perm   map[protocol.ProcessID][]*Manifest
	tent   map[protocol.ProcessID]map[protocol.Trigger]*Manifest
	last   map[protocol.ProcessID]*lastImage

	liveBytes int64
	diskBytes int64
	ctrlBytes int64 // manifest/commit/drop frame bytes since the last compaction
	closed    bool
	stats     Stats
}

// Dir returns the conventional chunk-store directory under a store root.
func Dir(root string) string { return filepath.Join(root, "chunks") }

// Open opens (or creates) the chunk store in dir. seglog.Open recovers an
// existing directory — replay from the newest reset boundary, truncate
// the torn tail — and Open then rebuilds the refcounts and requires every
// retained manifest to resolve.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.defaults()
	if opts.ChunkBytes > maxChunkBytes {
		return nil, fmt.Errorf("chunkstore: chunk size %d exceeds limit %d", opts.ChunkBytes, maxChunkBytes)
	}
	s := &Store{
		opts:   opts,
		chunks: make(map[wire.ChunkHash]*chunkInfo),
		perm:   make(map[protocol.ProcessID][]*Manifest),
		tent:   make(map[protocol.ProcessID]map[protocol.Trigger]*Manifest),
		last:   make(map[protocol.ProcessID]*lastImage),
	}
	log, err := seglog.Open(dir, "chk",
		seglog.Options{FS: opts.FS, Sync: opts.Sync, SegmentBytes: opts.SegmentBytes},
		seglog.Client{Head: resetTarget, Apply: s.apply, Boundary: resetFrame})
	if err != nil {
		return nil, fmt.Errorf("chunkstore: open %s: %w", dir, err)
	}
	s.log = log
	if err := s.rebuildRefs(); err != nil {
		log.Close() //nolint:errcheck // the open already failed
		return nil, err
	}
	return s, nil
}

// resetFrame is the log's boundary frame. It names the first segment of
// its rewrite, which is durable before the boundary is published, so a
// crash in a compaction leaves the old chain or a complete new one.
func resetFrame(start uint64) ([]byte, error) {
	return wire.AppendChunkRecord(nil, &wire.ChunkRecord{Op: wire.ChunkOpReset, Length: int64(start)})
}

// resetTarget is the log's boundary test: whether a segment's first
// record is a reset boundary, and which segment its rewrite starts at.
// An intact record of another format version, or with an op this store
// does not apply, is another build's, not debris, and an error.
func resetTarget(_ uint64, body []byte) (uint64, bool, error) {
	rec, err := wire.ParseChunkRecord(body)
	if errors.Is(err, wire.ErrFormatVersion) {
		return 0, false, err
	}
	if err != nil {
		return 0, false, nil
	}
	switch rec.Op {
	case wire.ChunkOpReset:
		if rec.Length <= 0 {
			return 0, false, nil
		}
		return uint64(rec.Length), true, nil
	case wire.ChunkOpPut, wire.ChunkOpManifest, wire.ChunkOpCommit, wire.ChunkOpDrop:
		return 0, false, nil
	default:
		return 0, false, errUnsupportedOp(rec.Op)
	}
}

// errUnsupportedOp refuses an intact record whose op the store does not
// apply: the patch records of a removed delta storage mode. It is not
// wire.ErrCorruptRecord, so the open fails and recovery cuts nothing.
func errUnsupportedOp(op wire.ChunkOp) error {
	return fmt.Errorf("chunkstore: unsupported chunk record op %d (%v)", op, op)
}

// apply folds one replayed record into the index. Refcounts are not
// maintained here — rebuildRefs recomputes them from the surviving
// manifests once the whole chain is replayed.
func (s *Store) apply(seg string, off int64, body []byte) error {
	rec, err := wire.ParseChunkRecord(body)
	if err != nil {
		return err
	}
	switch rec.Op {
	case wire.ChunkOpReset:
		return nil
	case wire.ChunkOpPut:
		s.indexChunk(rec.Hash, &chunkInfo{size: len(rec.Payload), seg: seg, off: off, owner: rec.Proc})
		return nil
	case wire.ChunkOpManifest:
		m := &Manifest{
			Proc: rec.Proc, Trigger: rec.Trigger, At: rec.At,
			ChunkBytes: rec.ChunkBytes, Length: rec.Length,
			Hashes: append([]wire.ChunkHash(nil), rec.Hashes...),
		}
		switch rec.Status {
		case statusTentative:
			tm := s.tent[m.Proc]
			if tm == nil {
				tm = make(map[protocol.Trigger]*Manifest)
				s.tent[m.Proc] = tm
			}
			// Last writer wins: a crash between a compaction's rewrite and
			// its boundary becoming durable leaves the old chain followed by
			// an orphaned compaction suffix that restates every pending
			// tentative — the restatement is byte-identical, so replaying it
			// as a replacement is safe and keeps the open from failing.
			tm[m.Trigger] = m
			return nil
		case statusPermanent:
			// Compaction copy of committed history. An orphaned compaction
			// suffix (see above) restates manifests already promoted by
			// their commit records during this replay; skip those.
			for _, have := range s.perm[m.Proc] {
				if have.Trigger == m.Trigger && have.At == m.At {
					return nil
				}
			}
			s.perm[m.Proc] = append(s.perm[m.Proc], m)
			s.trimPermanent(m.Proc, nil)
			return nil
		default:
			return fmt.Errorf("manifest with status %d", rec.Status)
		}
	case wire.ChunkOpCommit:
		m := s.tent[rec.Proc][rec.Trigger]
		if m == nil {
			return fmt.Errorf("commit without tentative manifest for P%d %+v", rec.Proc, rec.Trigger)
		}
		delete(s.tent[rec.Proc], rec.Trigger)
		m.At = rec.At
		s.perm[rec.Proc] = append(s.perm[rec.Proc], m)
		s.trimPermanent(rec.Proc, nil)
		return nil
	case wire.ChunkOpDrop:
		if s.tent[rec.Proc][rec.Trigger] == nil {
			return fmt.Errorf("drop without tentative manifest for P%d %+v", rec.Proc, rec.Trigger)
		}
		delete(s.tent[rec.Proc], rec.Trigger)
		return nil
	default:
		return errUnsupportedOp(rec.Op)
	}
}

// indexChunk records a chunk's (latest) location. diskBytes counts every
// stored copy — duplicates from compaction are garbage until the next
// compaction.
func (s *Store) indexChunk(h wire.ChunkHash, info *chunkInfo) {
	s.diskBytes += int64(info.size)
	if old := s.chunks[h]; old != nil {
		info.refs = old.refs
	}
	s.chunks[h] = info
}

// rebuildRefs recomputes refcounts from the retained manifests and
// requires every retained manifest to resolve to indexed chunks.
func (s *Store) rebuildRefs() error {
	for _, info := range s.chunks {
		info.refs = 0
	}
	walk := func(m *Manifest, kind string) error {
		for _, h := range m.Hashes {
			info := s.chunks[h]
			if info == nil {
				return fmt.Errorf("chunkstore: %s manifest P%d %+v references missing chunk %x", kind, m.Proc, m.Trigger, h[:8])
			}
			info.refs++
		}
		return nil
	}
	for _, ms := range s.perm {
		for _, m := range ms {
			if err := walk(m, "permanent"); err != nil {
				return err
			}
		}
	}
	for _, tm := range s.tent {
		for _, m := range tm {
			if err := walk(m, "tentative"); err != nil {
				return err
			}
		}
	}
	s.liveBytes = 0
	for _, info := range s.chunks {
		if info.refs > 0 {
			s.liveBytes += int64(info.size)
		}
	}
	return nil
}

// trimPermanent applies the retention bound after a commit, releasing
// references held by evicted manifests. During replay (unref nil) refs
// are not yet computed, so eviction just shortens the history.
func (s *Store) trimPermanent(proc protocol.ProcessID, unref func(*Manifest)) {
	if s.opts.Keep <= 0 {
		return
	}
	ms := s.perm[proc]
	for len(ms) > s.opts.Keep {
		if unref != nil {
			unref(ms[0])
		}
		ms = ms[1:]
	}
	s.perm[proc] = append([]*Manifest(nil), ms...)
}

// --- write path ---

// Broken returns the error that poisoned the store, if any.
func (s *Store) Broken() error { return s.log.Broken() }

func (s *Store) usable() error {
	if s.closed {
		return ErrClosed
	}
	return s.log.Broken()
}

// appendCtrl frames a commit or drop record, appends it and syncs the
// log, as it is commit-grade.
func (s *Store) appendCtrl(rec *wire.ChunkRecord) error {
	frame, err := wire.AppendChunkRecord(nil, rec)
	if err != nil {
		return err
	}
	if _, err := s.log.Append(frame); err != nil {
		return err
	}
	// Control records are not payload bytes, but they still consume disk;
	// compaction is also triggered when they alone outgrow the chain (see
	// maybeCompactLocked).
	s.ctrlBytes += int64(len(frame))
	return s.log.Sync()
}

// HashChunk returns the content address of one chunk.
func HashChunk(b []byte) wire.ChunkHash { return sha256.Sum256(b) }

// hashLocked returns the content addresses of chunks, proc's image cut
// by SplitChunks. A chunk equal to the one at the same index, and of the
// same length, in the image proc saved last reuses that chunk's hash; any
// other is hashed and copied over the old one, so the kept copy then
// equals this image at the cost of what changed.
func (s *Store) hashLocked(proc protocol.ProcessID, chunks [][]byte, size int) []wire.ChunkHash {
	last := s.last[proc]
	if last == nil {
		last = &lastImage{}
		s.last[proc] = last
	}
	old := len(last.image)
	if size > old {
		last.image = append(last.image, make([]byte, size-old)...)
	}
	last.image = last.image[:size]
	hashes := make([]wire.ChunkHash, len(chunks))
	for i, data := range chunks {
		off := i * s.opts.ChunkBytes
		end := off + len(data)
		kept := last.image[off:end]
		if min(off+s.opts.ChunkBytes, old) == end && bytes.Equal(data, kept) {
			hashes[i] = last.hashes[i]
			continue
		}
		hashes[i] = HashChunk(data)
		copy(kept, data)
	}
	last.hashes = hashes
	return hashes
}

// SplitChunks cuts an image into fixed-size chunks (the last one may be
// short). The sub-slices alias image.
func SplitChunks(image []byte, chunkBytes int) [][]byte {
	if chunkBytes <= 0 {
		chunkBytes = defaultChunkBytes
	}
	n := (len(image) + chunkBytes - 1) / chunkBytes
	if n == 0 {
		return nil
	}
	out := make([][]byte, 0, n)
	for off := 0; off < len(image); off += chunkBytes {
		end := off + chunkBytes
		if end > len(image) {
			end = len(image)
		}
		out = append(out, image[off:end])
	}
	return out
}

// ref bumps a chunk's reference count, reviving garbage if needed.
func (s *Store) ref(info *chunkInfo) {
	if info.refs == 0 {
		s.liveBytes += int64(info.size)
	}
	info.refs++
}

// unref releases one reference. A chunk whose count hits zero stays
// indexed as garbage, revivable by a later save, until compaction.
func (s *Store) unref(h wire.ChunkHash) {
	info := s.chunks[h]
	if info == nil {
		return // nothing indexed to release
	}
	info.refs--
	if info.refs == 0 {
		s.liveBytes -= int64(info.size)
	}
}

func (s *Store) unrefManifest(m *Manifest) {
	for _, h := range m.Hashes {
		s.unref(h)
	}
}

// PutTentative chunks a process image, stores the chunks not already
// indexed, and records the tentative manifest. The caller keeps image:
// the store copies what it retains.
//
// Only the chunks that differ from proc's previous image are hashed
// (hashLocked). The new chunks and then the manifest go to the log as one
// batch, so a save is one write (one per segment it spans), and a crash
// inside it keeps a prefix: chunks no manifest references yet, which
// compaction reclaims, never a manifest without its chunks.
func (s *Store) PutTentative(proc protocol.ProcessID, trig protocol.Trigger, at time.Duration, image []byte) (checkpoint.PayloadReceipt, error) {
	var r checkpoint.PayloadReceipt
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usable(); err != nil {
		return r, err
	}
	if s.tent[proc][trig] != nil {
		return r, checkpoint.ErrPayloadPending
	}
	chunks := SplitChunks(image, s.opts.ChunkBytes)
	hashes := s.hashLocked(proc, chunks, len(image))
	r.LogicalBytes = uint64(len(image))
	r.Chunks = len(chunks)
	var selfDedup, crossDedup uint64
	var batch []byte
	var fresh []wire.ChunkHash // indexed ahead of the write, placed after it
	var err error
	for i, data := range chunks {
		h := hashes[i]
		if info, ok := s.chunks[h]; ok {
			r.DedupChunks++
			if info.owner == proc {
				selfDedup++
			} else {
				crossDedup++
			}
			continue
		}
		if batch, err = wire.AppendChunkRecord(batch, &wire.ChunkRecord{Op: wire.ChunkOpPut, Proc: proc, Hash: h, Payload: data}); err != nil {
			break
		}
		// Indexed now, so a repeat later in this image is a dedup hit.
		s.indexChunk(h, &chunkInfo{size: len(data), owner: proc})
		fresh = append(fresh, h)
		r.NewBytes += uint64(len(data))
		r.NewChunks++
	}
	m := &Manifest{
		Proc: proc, Trigger: trig, At: at,
		ChunkBytes: s.opts.ChunkBytes, Length: int64(len(image)), Hashes: hashes,
	}
	manifestAt := len(batch)
	if err == nil {
		batch, err = wire.AppendChunkRecord(batch, &wire.ChunkRecord{
			Op: wire.ChunkOpManifest, Proc: proc, Trigger: trig, At: at,
			Status: statusTentative, ChunkBytes: m.ChunkBytes, Length: m.Length, Hashes: hashes,
		})
	}
	var pos []seglog.Pos
	if err == nil {
		pos, err = s.log.AppendBatch(batch)
	}
	if err != nil {
		// A failed save leaves nothing in the index: its chunks are not
		// on disk, or not known to be.
		for _, h := range fresh {
			s.diskBytes -= int64(s.chunks[h].size)
			delete(s.chunks, h)
		}
		return r, err
	}
	for i, h := range fresh {
		s.chunks[h].seg, s.chunks[h].off = pos[i].Segment, pos[i].Offset
	}
	tm := s.tent[proc]
	if tm == nil {
		tm = make(map[protocol.Trigger]*Manifest)
		s.tent[proc] = tm
	}
	tm[trig] = m
	for _, h := range hashes {
		s.ref(s.chunks[h])
	}
	manifestBytes := len(batch) - manifestAt
	s.ctrlBytes += int64(manifestBytes)
	r.NewBytes += uint64(manifestBytes)
	s.stats.Saves++
	s.stats.LogicalBytes += r.LogicalBytes
	s.stats.NewBytes += r.NewBytes
	s.stats.NewChunks += uint64(r.NewChunks)
	s.stats.DedupChunks += uint64(r.DedupChunks)
	s.stats.SelfDedupChunks += selfDedup
	s.stats.CrossDedupChunks += crossDedup
	return r, nil
}

// CommitTentative promotes trig's tentative manifest to permanent. The
// commit marker is the durable point (fsynced under SyncOnCommit);
// retention then applies the discard rule, and auto-compaction may
// reclaim newly dead chunks.
func (s *Store) CommitTentative(proc protocol.ProcessID, trig protocol.Trigger, at time.Duration) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usable(); err != nil {
		return err
	}
	m := s.tent[proc][trig]
	if m == nil {
		return checkpoint.ErrNoPayload
	}
	if err := s.appendCtrl(&wire.ChunkRecord{Op: wire.ChunkOpCommit, Proc: proc, Trigger: trig, At: at}); err != nil {
		return err
	}
	delete(s.tent[proc], trig)
	m.At = at
	s.perm[proc] = append(s.perm[proc], m)
	s.trimPermanent(proc, s.unrefManifest)
	return s.maybeCompactLocked()
}

// DropTentative discards trig's tentative manifest (abort path) and
// releases its chunk references.
func (s *Store) DropTentative(proc protocol.ProcessID, trig protocol.Trigger) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usable(); err != nil {
		return err
	}
	m := s.tent[proc][trig]
	if m == nil {
		return checkpoint.ErrNoPayload
	}
	if err := s.appendCtrl(&wire.ChunkRecord{Op: wire.ChunkOpDrop, Proc: proc, Trigger: trig}); err != nil {
		return err
	}
	delete(s.tent[proc], trig)
	s.unrefManifest(m)
	return nil
}

// --- read path ---

// readChunkLocked reads one chunk's record and verifies the content
// hash.
func (s *Store) readChunkLocked(h wire.ChunkHash) ([]byte, error) {
	info := s.chunks[h]
	if info == nil {
		return nil, fmt.Errorf("chunkstore: unknown chunk %x", h[:8])
	}
	body, err := s.log.ReadAt(info.seg, info.off)
	if err != nil {
		return nil, err
	}
	rec, err := wire.ParseChunkRecord(body)
	if err != nil {
		return nil, fmt.Errorf("chunkstore: record at %s+%d: %w", info.seg, info.off, err)
	}
	if rec.Hash != h {
		return nil, fmt.Errorf("%w: record at %s+%d holds %x", ErrBadChunk, info.seg, info.off, rec.Hash[:8])
	}
	if HashChunk(rec.Payload) != h {
		return nil, fmt.Errorf("%w: %x", ErrBadChunk, h[:8])
	}
	return rec.Payload, nil
}

// Permanent returns the newest permanent manifest for proc.
func (s *Store) Permanent(proc protocol.ProcessID) (*Manifest, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ms := s.perm[proc]
	if len(ms) == 0 {
		return nil, false
	}
	return manifestCopy(ms[len(ms)-1]), true
}

// History returns proc's retained permanent manifests, oldest first.
func (s *Store) History(proc protocol.ProcessID) []*Manifest {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Manifest, 0, len(s.perm[proc]))
	for _, m := range s.perm[proc] {
		out = append(out, manifestCopy(m))
	}
	return out
}

// TentativeTriggers lists proc's pending payload triggers in (Pid, Inum)
// order.
func (s *Store) TentativeTriggers(proc protocol.ProcessID) []protocol.Trigger {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tentTriggersLocked(proc)
}

func (s *Store) tentTriggersLocked(proc protocol.ProcessID) []protocol.Trigger {
	out := make([]protocol.Trigger, 0, len(s.tent[proc]))
	for trig := range s.tent[proc] {
		out = append(out, trig)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pid != out[j].Pid {
			return out[i].Pid < out[j].Pid
		}
		return out[i].Inum < out[j].Inum
	})
	return out
}

// RestoreBytes is the wireless cost of restoring this manifest: every
// distinct chunk crosses the medium once (a fresh host caches nothing,
// but the MSS serves a chunk repeated within the image a single time).
// Chunk sizes follow from the manifest alone — ChunkBytes each, with the
// final chunk carrying the remainder — so the cost is computable without
// touching the chunk index.
func (m *Manifest) RestoreBytes() uint64 {
	var total uint64
	seen := make(map[wire.ChunkHash]bool, len(m.Hashes))
	for i, h := range m.Hashes {
		if seen[h] {
			continue
		}
		seen[h] = true
		size := int64(m.ChunkBytes)
		if i == len(m.Hashes)-1 {
			size = m.Length - int64(m.ChunkBytes)*int64(len(m.Hashes)-1)
		}
		total += uint64(size)
	}
	return total
}

func manifestCopy(m *Manifest) *Manifest {
	cp := *m
	cp.Hashes = append([]wire.ChunkHash(nil), m.Hashes...)
	return &cp
}

// RestoreCost reports the deduped distinct-chunk bytes a restore of
// proc's newest permanent payload pulls over the wireless medium. ok is
// false when no permanent payload exists.
func (s *Store) RestoreCost(proc protocol.ProcessID) (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ms := s.perm[proc]
	if len(ms) == 0 {
		return 0, false
	}
	return ms[len(ms)-1].RestoreBytes(), true
}

// Materialize reassembles proc's newest permanent payload image. ok is
// false when no payload has been committed.
func (s *Store) Materialize(proc protocol.ProcessID) ([]byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ms := s.perm[proc]
	if len(ms) == 0 {
		return nil, false, nil
	}
	img, err := s.materializeLocked(ms[len(ms)-1])
	return img, true, err
}

func (s *Store) materializeLocked(m *Manifest) ([]byte, error) {
	var buf bytes.Buffer
	buf.Grow(int(m.Length))
	for i, h := range m.Hashes {
		data, err := s.readChunkLocked(h)
		if err != nil {
			return nil, fmt.Errorf("chunkstore: P%d %+v chunk %d: %w", m.Proc, m.Trigger, i, err)
		}
		buf.Write(data)
	}
	if int64(buf.Len()) != m.Length {
		return nil, fmt.Errorf("chunkstore: P%d %+v materialized %d bytes, manifest says %d", m.Proc, m.Trigger, buf.Len(), m.Length)
	}
	return buf.Bytes(), nil
}

// Verify checks that every retained manifest for proc — the permanent
// history and pending tentatives — resolves to intact, hash-verified
// chunks.
func (s *Store) Verify(proc protocol.ProcessID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	seen := make(map[wire.ChunkHash]bool)
	check := func(m *Manifest) error {
		for i, h := range m.Hashes {
			if seen[h] {
				continue
			}
			if _, err := s.readChunkLocked(h); err != nil {
				return fmt.Errorf("chunkstore: P%d %+v chunk %d: %w", m.Proc, m.Trigger, i, err)
			}
			seen[h] = true
		}
		return nil
	}
	for _, m := range s.perm[proc] {
		if err := check(m); err != nil {
			return err
		}
	}
	for _, m := range s.tent[proc] {
		if err := check(m); err != nil {
			return err
		}
	}
	return nil
}

// Stats returns a point-in-time summary.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Metrics = s.log.Metrics()
	st.Segments = len(s.log.Segments())
	st.Chunks = len(s.chunks)
	st.DiskBytes = s.diskBytes
	st.LiveBytes = s.liveBytes
	for _, info := range s.chunks {
		if info.refs > 0 {
			st.LiveChunks++
		}
	}
	for _, ms := range s.perm {
		st.Permanents += len(ms)
	}
	for _, tm := range s.tent {
		st.Tentatives += len(tm)
	}
	return st
}

// Close syncs (per policy) and closes the log.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.log.Close()
}

package chunkstore

// Striping and replication across K MSS chunk stores. Chunks are placed
// by hash on R consecutive members of the ring (the placement map), so
// writes spread across stores and a crashed MSS never holds the only
// copy of a chunk: restore reads each chunk from the first surviving
// replica and hash-verifies it. Manifests and their commit/drop markers
// are tiny (32 bytes per chunk) and are replicated to every member —
// a store that loses everything (modelled as an MSS wiped back to an
// empty directory) learns nothing, but any survivor can name the line.
//
// Each member runs in Partial mode: its manifests may reference chunks
// placed on other members, its refcounts cover local chunks only, and
// resolution is audited stripe-wide by Verify.

import (
	"encoding/binary"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"mutablecp/internal/checkpoint"
	"mutablecp/internal/protocol"
	"mutablecp/internal/wire"
)

// Stripe is a set of chunk stores acting as one payload backend.
type Stripe struct {
	stores   []*Store
	replicas int
	opts     Options

	mu   sync.Mutex
	save Stats // save-side counters (members only see placed chunks)
}

// StripeDirs returns the conventional member directories for a K-way
// stripe under a store root.
func StripeDirs(root string, k int) []string {
	dirs := make([]string, k)
	for i := range dirs {
		dirs[i] = filepath.Join(root, fmt.Sprintf("mss%02d", i))
	}
	return dirs
}

// OpenStripe opens one chunk store per directory and joins them into a
// stripe with the given replication factor (clamped to the member
// count). A member whose directory was wiped opens as an empty store
// and simply holds no replicas until the next checkpoints refill it.
// Delta mode is a single-store feature (the same-offset base chunk may
// be placed on another member), so it degrades to incremental here.
func OpenStripe(dirs []string, replicas int, opts Options) (*Stripe, error) {
	if len(dirs) == 0 {
		return nil, fmt.Errorf("chunkstore: stripe needs at least one store")
	}
	if replicas < 1 {
		replicas = 1
	}
	if replicas > len(dirs) {
		replicas = len(dirs)
	}
	opts = opts.defaults()
	opts.Partial = true
	if opts.Mode == ModeDelta {
		opts.Mode = ModeIncremental
	}
	st := &Stripe{replicas: replicas, opts: opts}
	for _, dir := range dirs {
		s, err := Open(dir, opts)
		if err != nil {
			for _, open := range st.stores {
				open.Close() //nolint:errcheck
			}
			return nil, err
		}
		st.stores = append(st.stores, s)
	}
	return st, nil
}

// Stores exposes the members (tests kill and audit individual MSSes).
func (st *Stripe) Stores() []*Store { return st.stores }

// home is the placement map: the chunk's primary member, with replicas
// on the next replicas-1 members of the ring.
func (st *Stripe) home(h wire.ChunkHash) int {
	return int(binary.BigEndian.Uint32(h[:4]) % uint32(len(st.stores)))
}

// placement lists the members holding h, primary first.
func (st *Stripe) placement(h wire.ChunkHash) []int {
	out := make([]int, st.replicas)
	home := st.home(h)
	for i := range out {
		out[i] = (home + i) % len(st.stores)
	}
	return out
}

// PutTentative implements System: chunks are placed by hash on R
// members, the manifest goes everywhere. The receipt counts the
// wireless crossing once — NewBytes is what the primary had to store;
// replica copies are MSS-to-MSS wired traffic.
//
// The save pipelines: hashing fans out over the worker pool, then each
// member receives its placed chunks as one ordered batch and the
// members write concurrently (their logs are independent; within a log
// the batch keeps input order, so member bytes stay deterministic).
// The first member error wins and the remaining members still finish
// their batches before it is returned. Manifests fan out the same way
// once every chunk is placed, preserving the serial path's invariant
// that no manifest can land before the chunks it names.
func (st *Stripe) PutTentative(proc protocol.ProcessID, trig protocol.Trigger, at time.Duration, image []byte) (checkpoint.PayloadReceipt, error) {
	var r checkpoint.PayloadReceipt
	chunks := SplitChunks(image, st.opts.ChunkBytes)
	hashes := hashChunks(chunks, st.opts.Workers)
	r.LogicalBytes = uint64(len(image))
	r.Chunks = len(chunks)

	// Deterministic per-member batches in input order. primary[member][j]
	// marks whether batch entry j is the primary replica of its chunk —
	// the copy whose outcome the receipt charges to the wireless medium.
	batches := make([][]ChunkWrite, len(st.stores))
	primary := make([][]bool, len(st.stores))
	for i, data := range chunks {
		h := hashes[i]
		for ri, member := range st.placement(h) {
			batches[member] = append(batches[member], ChunkWrite{Hash: h, Data: data})
			primary[member] = append(primary[member], ri == 0)
		}
	}

	results := make([][]ChunkWriteResult, len(st.stores))
	errs := make([]error, len(st.stores))
	var wg sync.WaitGroup
	for member := range st.stores {
		if len(batches[member]) == 0 {
			continue
		}
		wg.Add(1)
		go func(member int) {
			defer wg.Done()
			results[member], errs[member] = st.stores[member].PutChunks(proc, batches[member])
		}(member)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return r, err
		}
	}
	// Receipt accounting from the primary entries, in member-then-batch
	// order: deterministic because the batches are.
	var selfDedup, crossDedup uint64
	for member, res := range results {
		for j, cw := range res {
			if !primary[member][j] {
				continue
			}
			if cw.Bytes > 0 {
				r.NewChunks++
				r.NewBytes += uint64(cw.Bytes)
			} else {
				r.DedupChunks++
				if cw.Cross {
					crossDedup++
				} else {
					selfDedup++
				}
			}
		}
	}

	m := &Manifest{
		Proc: proc, Trigger: trig, At: at,
		ChunkBytes: st.opts.ChunkBytes, Length: int64(len(image)), Hashes: hashes,
	}
	frames := make([]int, len(st.stores))
	for member := range st.stores {
		wg.Add(1)
		go func(member int) {
			defer wg.Done()
			frames[member], errs[member] = st.stores[member].PutTentativeManifest(m)
		}(member)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return r, err
		}
	}
	r.NewBytes += uint64(frames[0])

	st.mu.Lock()
	st.save.Saves++
	st.save.LogicalBytes += r.LogicalBytes
	st.save.NewBytes += r.NewBytes
	st.save.NewChunks += uint64(r.NewChunks)
	st.save.DedupChunks += uint64(r.DedupChunks)
	st.save.DeltaChunks += uint64(r.DeltaChunks)
	st.save.SelfDedupChunks += selfDedup
	st.save.CrossDedupChunks += crossDedup
	st.mu.Unlock()
	return r, nil
}

// CommitTentative implements System: the commit marker lands on every
// member (each fsyncs per its policy).
func (st *Stripe) CommitTentative(proc protocol.ProcessID, trig protocol.Trigger, at time.Duration) error {
	for _, s := range st.stores {
		if err := s.CommitTentative(proc, trig, at); err != nil {
			return err
		}
	}
	return nil
}

// DropTentative implements System.
func (st *Stripe) DropTentative(proc protocol.ProcessID, trig protocol.Trigger) error {
	for _, s := range st.stores {
		if err := s.DropTentative(proc, trig); err != nil {
			return err
		}
	}
	return nil
}

// TentativeTriggers implements System: the union over members (a wiped
// member knows fewer).
func (st *Stripe) TentativeTriggers(proc protocol.ProcessID) []protocol.Trigger {
	seen := make(map[protocol.Trigger]bool)
	var out []protocol.Trigger
	for _, s := range st.stores {
		for _, trig := range s.TentativeTriggers(proc) {
			if !seen[trig] {
				seen[trig] = true
				out = append(out, trig)
			}
		}
	}
	return out
}

// newestPermanent picks proc's newest permanent manifest across the
// members: survivors of a wiped MSS still hold the full history.
func (st *Stripe) newestPermanent(proc protocol.ProcessID) (*Manifest, bool) {
	var best *Manifest
	for _, s := range st.stores {
		m, ok := s.Permanent(proc)
		if !ok {
			continue
		}
		if best == nil || m.At > best.At {
			best = m
		}
	}
	return best, best != nil
}

// readChunkAny materializes h from the first placement member that has
// an intact copy.
func (st *Stripe) readChunkAny(h wire.ChunkHash) ([]byte, error) {
	var firstErr error
	for _, member := range st.placement(h) {
		data, err := st.stores[member].ReadChunk(h)
		if err == nil {
			return data, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return nil, fmt.Errorf("chunkstore: no surviving replica of %x: %w", h[:8], firstErr)
}

// RestoreCost implements System: the deduped distinct-chunk bytes of
// proc's newest permanent manifest (the manifest is replicated on every
// member, so any member's copy prices the whole stripe's restore).
func (st *Stripe) RestoreCost(proc protocol.ProcessID) (uint64, bool) {
	m, ok := st.newestPermanent(proc)
	if !ok {
		return 0, false
	}
	return m.RestoreBytes(), true
}

// Materialize implements System: the newest permanent image, each chunk
// read from the first surviving replica.
func (st *Stripe) Materialize(proc protocol.ProcessID) ([]byte, bool, error) {
	m, ok := st.newestPermanent(proc)
	if !ok {
		return nil, false, nil
	}
	out := make([]byte, 0, m.Length)
	for i, h := range m.Hashes {
		data, err := st.readChunkAny(h)
		if err != nil {
			return nil, true, fmt.Errorf("chunkstore: P%d %+v chunk %d: %w", proc, m.Trigger, i, err)
		}
		out = append(out, data...)
	}
	if int64(len(out)) != m.Length {
		return nil, true, fmt.Errorf("chunkstore: P%d %+v materialized %d bytes, manifest says %d", proc, m.Trigger, len(out), m.Length)
	}
	return out, true, nil
}

// Verify implements System: every manifest any member retains for proc
// must resolve to an intact replica of each chunk somewhere in the
// stripe.
func (st *Stripe) Verify(proc protocol.ProcessID) error {
	type key struct {
		trig protocol.Trigger
		at   time.Duration
	}
	checked := make(map[key]bool)
	okChunk := make(map[wire.ChunkHash]bool)
	verify := func(m *Manifest) error {
		k := key{m.Trigger, m.At}
		if checked[k] {
			return nil
		}
		checked[k] = true
		for i, h := range m.Hashes {
			if okChunk[h] {
				continue
			}
			if _, err := st.readChunkAny(h); err != nil {
				return fmt.Errorf("chunkstore: P%d %+v chunk %d: %w", proc, m.Trigger, i, err)
			}
			okChunk[h] = true
		}
		return nil
	}
	for _, s := range st.stores {
		for _, m := range s.History(proc) {
			if err := verify(m); err != nil {
				return err
			}
		}
		for _, trig := range s.TentativeTriggers(proc) {
			s.mu.Lock()
			m := s.tent[proc][trig]
			var cp *Manifest
			if m != nil {
				cp = manifestCopy(m)
			}
			s.mu.Unlock()
			if cp != nil {
				if err := verify(cp); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Stats implements System: the aggregate over members (replicated
// chunks count once per member holding them).
func (st *Stripe) Stats() Stats {
	var agg Stats
	for _, s := range st.stores {
		m := s.Stats()
		agg.Stores += m.Stores
		agg.Segments += m.Segments
		agg.Chunks += m.Chunks
		agg.LiveChunks += m.LiveChunks
		agg.LiveBytes += m.LiveBytes
		agg.DiskBytes += m.DiskBytes
		agg.Permanents += m.Permanents
		agg.Tentatives += m.Tentatives
		agg.Appends += m.Appends
		agg.Syncs += m.Syncs
		agg.Compactions += m.Compactions
		agg.ReplayedRecords += m.ReplayedRecords
		agg.TruncatedBytes += m.TruncatedBytes
	}
	st.mu.Lock()
	agg.Saves = st.save.Saves
	agg.LogicalBytes = st.save.LogicalBytes
	agg.NewBytes = st.save.NewBytes
	agg.NewChunks = st.save.NewChunks
	agg.DedupChunks = st.save.DedupChunks
	agg.DeltaChunks = st.save.DeltaChunks
	agg.SelfDedupChunks = st.save.SelfDedupChunks
	agg.CrossDedupChunks = st.save.CrossDedupChunks
	st.mu.Unlock()
	return agg
}

// Close closes every member, returning the first error.
func (st *Stripe) Close() error {
	var first error
	for _, s := range st.stores {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Package bitset provides the dependency-vector representation the
// checkpointing engines piggyback on every message. A Set is a
// fixed-length bit vector with an immutable Snapshot form that shares the
// backing storage by reference. Taking a snapshot is O(1); the owning Set
// copies its storage only on the first mutation after a snapshot
// (copy-on-write), so the common case — a vector captured at a checkpoint
// and fanned out across N request messages — costs one backing array per
// checkpoint instead of one per message.
//
// The representation is adaptive. A set starts sparse — a sorted slice of
// set-bit indices — and promotes itself to dense []uint64 words once the
// population passes maxSparse(n) = min(words(n), 4096). Reset demotes
// back to the empty sparse form. A min-process checkpointing instance
// touches O(participants) processes regardless of system size, so
// New(1_000_000) with 50 set bits costs ~50 uint32 slots instead of
// ~15,625 words; small systems (n ≤ 64) promote after a single bit and
// keep the PR 5 dense fast paths. All operations accept mixed
// sparse/dense operands and preserve identical observable semantics in
// both regimes (NextSet order, Count, Bools).
package bitset

import (
	"math/bits"
	"sort"
)

const wordBits = 64

// maxSparseCap bounds the sparse population independent of n: past a few
// thousand ids, binary-search insertion churn outweighs the memory win.
const maxSparseCap = 4096

// words returns the dense backing-array length for n bits (at least one
// word for n >= 1, so a non-nil payload always distinguishes "present but
// empty" from "absent").
func words(n int) int { return (n + wordBits - 1) / wordBits }

// maxSparse returns the promotion threshold: a sparse set of n bits
// promotes to dense words once its population exceeds this. One id costs
// half a word, but min(words(n), ...) keeps small sets dense-from-the-
// first-bit so the n ≤ 4096 hot paths stay exactly as fast as PR 5's
// always-dense representation.
func maxSparse(n int) int {
	w := words(n)
	if w > maxSparseCap {
		return maxSparseCap
	}
	return w
}

// emptyIDs is the canonical zero-length sparse payload: non-nil (so a
// present-but-empty set is distinct from an absent snapshot) and safely
// shareable (append on zero capacity always reallocates).
var emptyIDs = make([]uint32, 0)

// Set is a mutable fixed-length bit set. The zero value is unusable; call
// New. Set is not safe for concurrent use.
type Set struct {
	n      int
	dense  bool
	ids    []uint32 // sparse payload: sorted, unique set-bit indices
	w      []uint64 // dense payload
	shared bool     // active payload is referenced by a Snapshot; copy before mutating
}

// New returns an empty set of n bits (sparse form).
func New(n int) *Set {
	if n < 0 {
		panic("bitset: negative length")
	}
	return &Set{n: n, ids: emptyIDs}
}

// FromBools builds a set from a []bool vector, choosing the cheaper form
// for the observed density.
func FromBools(bs []bool) *Set {
	n := len(bs)
	c := 0
	for _, b := range bs {
		if b {
			c++
		}
	}
	s := &Set{n: n}
	if c <= maxSparse(n) {
		ids := make([]uint32, 0, c)
		for i, b := range bs {
			if b {
				ids = append(ids, uint32(i))
			}
		}
		s.ids = ids
		return s
	}
	w := make([]uint64, words(n))
	for i, b := range bs {
		if b {
			w[i/wordBits] |= 1 << (i % wordBits)
		}
	}
	s.dense = true
	s.w = w
	return s
}

// Len returns the number of bits.
func (s *Set) Len() int { return s.n }

// own gives the set private backing storage again after a snapshot shared
// it: the copy-on-write step, run at most once per snapshot.
func (s *Set) own() {
	if !s.shared {
		return
	}
	if s.dense {
		s.w = append([]uint64(nil), s.w...)
	} else {
		s.ids = append(emptyIDs, s.ids...)
	}
	s.shared = false
}

// promote converts a sparse set to dense words (fresh storage, so any
// outstanding snapshot keeps the old ids untouched).
func (s *Set) promote() {
	w := make([]uint64, words(s.n))
	for _, id := range s.ids {
		w[id/wordBits] |= 1 << (id % wordBits)
	}
	s.w = w
	s.ids = nil
	s.dense = true
	s.shared = false
}

// findID locates i in a sorted id slice.
func findID(ids []uint32, i uint32) (pos int, found bool) {
	pos = sort.Search(len(ids), func(k int) bool { return ids[k] >= i })
	return pos, pos < len(ids) && ids[pos] == i
}

// Set sets bit i.
func (s *Set) Set(i int) {
	s.check(i)
	if s.dense {
		s.own()
		s.w[i/wordBits] |= 1 << (i % wordBits)
		return
	}
	pos, found := findID(s.ids, uint32(i))
	if found {
		return
	}
	s.own()
	if len(s.ids) >= maxSparse(s.n) {
		s.promote()
		s.w[i/wordBits] |= 1 << (i % wordBits)
		return
	}
	s.ids = append(s.ids, 0)
	copy(s.ids[pos+1:], s.ids[pos:])
	s.ids[pos] = uint32(i)
}

// Clear clears bit i.
func (s *Set) Clear(i int) {
	s.check(i)
	if s.dense {
		s.own()
		s.w[i/wordBits] &^= 1 << (i % wordBits)
		return
	}
	pos, found := findID(s.ids, uint32(i))
	if !found {
		return
	}
	s.own()
	s.ids = append(s.ids[:pos], s.ids[pos+1:]...)
}

// Test reports bit i.
func (s *Set) Test(i int) bool {
	s.check(i)
	if s.dense {
		return s.w[i/wordBits]&(1<<(i%wordBits)) != 0
	}
	_, found := findID(s.ids, uint32(i))
	return found
}

func (s *Set) check(i int) {
	if i < 0 || i >= s.n {
		panic("bitset: index out of range")
	}
}

// Reset clears every bit and demotes the set to the sparse form. Any
// outstanding snapshot keeps the old payload.
func (s *Set) Reset() {
	if s.shared || s.dense {
		s.ids = emptyIDs
		s.w = nil
		s.dense = false
		s.shared = false
		return
	}
	s.ids = s.ids[:0]
}

// Or folds every bit of o into s. Lengths must match.
func (s *Set) Or(o Snapshot) {
	if o.IsZero() {
		return
	}
	if o.n != s.n {
		panic("bitset: length mismatch")
	}
	if s.dense {
		if o.dense {
			s.own()
			for i, w := range o.w {
				s.w[i] |= w
			}
			return
		}
		if len(o.ids) == 0 {
			return
		}
		s.own()
		for _, id := range o.ids {
			s.w[id/wordBits] |= 1 << (id % wordBits)
		}
		return
	}
	if o.dense {
		// Mixed regime: a dense operand can carry up to n bits, so s
		// joins it in the dense form.
		s.promote()
		for i, w := range o.w {
			s.w[i] |= w
		}
		return
	}
	s.orSparse(o.ids)
}

// orSparse merges a sorted id list into a sparse s. The steady-state case
// — every incoming id already present, as when a dependency vector
// re-absorbs the same participants — touches nothing and allocates
// nothing; missing ids are inserted in place (amortized 0 allocs once
// capacity has grown).
func (s *Set) orSparse(ids []uint32) {
	missing := 0
	for _, id := range ids {
		if _, found := findID(s.ids, id); !found {
			missing++
		}
	}
	if missing == 0 {
		return
	}
	s.own()
	if len(s.ids)+missing > maxSparse(s.n) {
		s.promote()
		for _, id := range ids {
			s.w[id/wordBits] |= 1 << (id % wordBits)
		}
		return
	}
	for _, id := range ids {
		pos, found := findID(s.ids, id)
		if found {
			continue
		}
		s.ids = append(s.ids, 0)
		copy(s.ids[pos+1:], s.ids[pos:])
		s.ids[pos] = id
	}
}

// CopyFrom overwrites s with o's bits (and adopts o's form); an absent
// snapshot clears s. Lengths must match when o is present.
func (s *Set) CopyFrom(o Snapshot) {
	if o.IsZero() {
		s.Reset()
		return
	}
	if o.n != s.n {
		panic("bitset: length mismatch")
	}
	if o.dense {
		if s.shared || !s.dense || len(s.w) != len(o.w) {
			s.w = make([]uint64, len(o.w))
		}
		copy(s.w, o.w)
		s.ids = nil
		s.dense = true
		s.shared = false
		return
	}
	if s.shared || s.dense || cap(s.ids) < len(o.ids) {
		s.ids = append(emptyIDs, o.ids...)
	} else {
		s.ids = s.ids[:len(o.ids)]
		copy(s.ids, o.ids)
	}
	s.w = nil
	s.dense = false
	s.shared = false
}

// Count returns the number of set bits.
func (s *Set) Count() int {
	if s.dense {
		return count(s.w)
	}
	return len(s.ids)
}

// Any reports whether any bit is set.
func (s *Set) Any() bool {
	if s.dense {
		return anyBit(s.w)
	}
	return len(s.ids) > 0
}

// NextSet returns the index of the first set bit at or after i, or -1.
func (s *Set) NextSet(i int) int {
	if s.dense {
		return nextSet(s.w, s.n, i)
	}
	return nextSparse(s.ids, i)
}

// Clone returns an independent mutable copy.
func (s *Set) Clone() *Set {
	c := &Set{n: s.n, dense: s.dense}
	if s.dense {
		c.w = append([]uint64(nil), s.w...)
	} else {
		c.ids = append(emptyIDs, s.ids...)
	}
	return c
}

// Snapshot returns an immutable view sharing the current payload. The
// view stays valid forever: any later mutation of s copies the payload
// first.
func (s *Set) Snapshot() Snapshot {
	s.shared = true
	return Snapshot{n: s.n, dense: s.dense, ids: s.ids, w: s.w}
}

// Bools renders the set as a []bool (trace/wire boundary; allocates).
func (s *Set) Bools() []bool {
	if s.dense {
		return bools(s.w, s.n)
	}
	return sparseBools(s.ids, s.n)
}

// Snapshot is an immutable bit vector sharing storage with the Set it was
// taken from. The zero Snapshot is "absent" — distinct from a snapshot of
// an all-false set, whose sparse payload is non-nil. Snapshots are
// values; copying one is a few words.
type Snapshot struct {
	n     int
	dense bool
	ids   []uint32
	w     []uint64
}

// IsZero reports absence: no vector was recorded, as opposed to an empty
// one.
func (p Snapshot) IsZero() bool { return p.ids == nil && p.w == nil }

// Len returns the number of bits (0 when absent).
func (p Snapshot) Len() int { return p.n }

// Test reports bit i; absent snapshots and out-of-range indices are false.
func (p Snapshot) Test(i int) bool {
	if i < 0 || i >= p.n {
		return false
	}
	if p.dense {
		return p.w[i/wordBits]&(1<<(i%wordBits)) != 0
	}
	_, found := findID(p.ids, uint32(i))
	return found
}

// Count returns the number of set bits.
func (p Snapshot) Count() int {
	if p.dense {
		return count(p.w)
	}
	return len(p.ids)
}

// Any reports whether any bit is set.
func (p Snapshot) Any() bool {
	if p.dense {
		return anyBit(p.w)
	}
	return len(p.ids) > 0
}

// NextSet returns the index of the first set bit at or after i, or -1.
func (p Snapshot) NextSet(i int) int {
	if p.dense {
		return nextSet(p.w, p.n, i)
	}
	return nextSparse(p.ids, i)
}

// Bools renders the snapshot as a []bool; nil when absent.
func (p Snapshot) Bools() []bool {
	if p.IsZero() {
		return nil
	}
	if p.dense {
		return bools(p.w, p.n)
	}
	return sparseBools(p.ids, p.n)
}

// Mutable returns an independent mutable copy of the snapshot.
func (p Snapshot) Mutable() *Set {
	s := &Set{n: p.n, dense: p.dense}
	if p.dense {
		s.w = append([]uint64(nil), p.w...)
	} else {
		s.ids = append(emptyIDs, p.ids...)
	}
	return s
}

func count(w []uint64) int {
	c := 0
	for _, x := range w {
		c += bits.OnesCount64(x)
	}
	return c
}

func anyBit(w []uint64) bool {
	for _, x := range w {
		if x != 0 {
			return true
		}
	}
	return false
}

func nextSet(w []uint64, n, i int) int {
	if i < 0 {
		i = 0
	}
	for i < n {
		word := w[i/wordBits] >> (i % wordBits)
		if word != 0 {
			i += bits.TrailingZeros64(word)
			if i >= n {
				return -1
			}
			return i
		}
		i = (i/wordBits + 1) * wordBits
	}
	return -1
}

// nextSparse returns the first id >= i in a sorted id list, or -1.
func nextSparse(ids []uint32, i int) int {
	if i < 0 {
		i = 0
	}
	pos := sort.Search(len(ids), func(k int) bool { return ids[k] >= uint32(i) })
	if pos == len(ids) {
		return -1
	}
	return int(ids[pos])
}

func bools(w []uint64, n int) []bool {
	if w == nil {
		return nil
	}
	out := make([]bool, n)
	for i := 0; i < n; i++ {
		out[i] = w[i/wordBits]&(1<<(i%wordBits)) != 0
	}
	return out
}

func sparseBools(ids []uint32, n int) []bool {
	out := make([]bool, n)
	for _, id := range ids {
		out[id] = true
	}
	return out
}

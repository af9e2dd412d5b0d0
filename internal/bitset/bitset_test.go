package bitset

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestSetTestClear(t *testing.T) {
	for _, n := range []int{1, 7, 64, 65, 127, 128, 200} {
		s := New(n)
		ref := make([]bool, n)
		rng := rand.New(rand.NewSource(int64(n)))
		for op := 0; op < 4*n; op++ {
			i := rng.Intn(n)
			if rng.Intn(3) == 0 {
				s.Clear(i)
				ref[i] = false
			} else {
				s.Set(i)
				ref[i] = true
			}
		}
		for i := 0; i < n; i++ {
			if s.Test(i) != ref[i] {
				t.Fatalf("n=%d bit %d: got %v want %v", n, i, s.Test(i), ref[i])
			}
		}
		if !reflect.DeepEqual(s.Bools(), ref) {
			t.Fatalf("n=%d Bools mismatch", n)
		}
		wantCount := 0
		for _, b := range ref {
			if b {
				wantCount++
			}
		}
		if s.Count() != wantCount {
			t.Fatalf("n=%d Count=%d want %d", n, s.Count(), wantCount)
		}
		if s.Any() != (wantCount > 0) {
			t.Fatalf("n=%d Any mismatch", n)
		}
		if got := FromBools(ref); !reflect.DeepEqual(got.Bools(), ref) {
			t.Fatalf("n=%d FromBools round trip", n)
		}
	}
}

func TestNextSetMatchesLinearScan(t *testing.T) {
	for _, n := range []int{1, 64, 65, 130} {
		rng := rand.New(rand.NewSource(int64(n)))
		s := New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(4) == 0 {
				s.Set(i)
			}
		}
		for from := 0; from <= n; from++ {
			want := -1
			for i := from; i < n; i++ {
				if s.Test(i) {
					want = i
					break
				}
			}
			got := -1
			if from < n {
				got = s.NextSet(from)
			}
			if got != want {
				t.Fatalf("n=%d NextSet(%d)=%d want %d", n, from, got, want)
			}
		}
		// Iterating via NextSet visits exactly the set bits, in order.
		var visited []int
		for i := s.NextSet(0); i >= 0; i = next(s, i) {
			visited = append(visited, i)
		}
		var wantVisited []int
		for i := 0; i < n; i++ {
			if s.Test(i) {
				wantVisited = append(wantVisited, i)
			}
		}
		if !reflect.DeepEqual(visited, wantVisited) {
			t.Fatalf("n=%d NextSet walk %v want %v", n, visited, wantVisited)
		}
	}
}

func next(s *Set, i int) int {
	if i+1 >= s.Len() {
		return -1
	}
	return s.NextSet(i + 1)
}

func TestSnapshotIsImmutableUnderMutation(t *testing.T) {
	s := New(100)
	s.Set(3)
	s.Set(70)
	snap := s.Snapshot()
	s.Set(5)
	s.Clear(3)
	s.Reset()
	if !snap.Test(3) || !snap.Test(70) || snap.Test(5) {
		t.Fatalf("snapshot changed under mutation: %v", snap.Bools())
	}
	if s.Any() {
		t.Fatalf("reset set still has bits")
	}
	// The set is fully usable after the copy-on-write.
	s.Set(99)
	if !s.Test(99) || snap.Test(99) {
		t.Fatal("post-COW mutation leaked into snapshot")
	}
}

// payload returns an address identifying the set's active backing array
// (sparse or dense), for zero-copy sharing assertions.
func payload(ids []uint32, w []uint64) any {
	if w != nil {
		return &w[0]
	}
	return &ids[0]
}

func TestSnapshotSharingIsZeroCopyUntilMutation(t *testing.T) {
	t.Run("sparse", func(t *testing.T) {
		s := New(1 << 16)
		s.Set(1)
		a := s.Snapshot()
		b := s.Snapshot()
		if a.dense || s.dense {
			t.Fatal("one bit in 65536 must be sparse")
		}
		if payload(a.ids, a.w) != payload(b.ids, b.w) {
			t.Fatal("consecutive snapshots of an unchanged set must share storage")
		}
		if payload(a.ids, a.w) != payload(s.ids, s.w) {
			t.Fatal("snapshot must share the set's storage until mutation")
		}
		s.Set(2)
		if payload(s.ids, s.w) == payload(a.ids, a.w) {
			t.Fatal("mutation must copy away from shared storage")
		}
		c := s.Snapshot()
		if !c.Test(2) || a.Test(2) {
			t.Fatal("snapshot contents wrong after COW")
		}
	})
	t.Run("dense", func(t *testing.T) {
		s := New(256)
		for i := 0; i < 64; i++ {
			s.Set(i) // 64 bits ≫ maxSparse(256)=4: dense regime
		}
		if !s.dense {
			t.Fatal("64 bits in 256 must be dense")
		}
		a := s.Snapshot()
		b := s.Snapshot()
		if &a.w[0] != &b.w[0] || &a.w[0] != &s.w[0] {
			t.Fatal("dense snapshots must share words until mutation")
		}
		s.Set(200)
		if &s.w[0] == &a.w[0] {
			t.Fatal("mutation must copy away from shared words")
		}
		if !s.Test(200) || a.Test(200) {
			t.Fatal("snapshot contents wrong after COW")
		}
	})
}

func TestZeroSnapshotMeansAbsent(t *testing.T) {
	var zero Snapshot
	if !zero.IsZero() {
		t.Fatal("zero Snapshot must be absent")
	}
	if zero.Test(0) || zero.Any() || zero.Count() != 0 || zero.Bools() != nil {
		t.Fatal("absent snapshot must read as empty")
	}
	// A present snapshot of an all-false set is NOT absent: the engine
	// uses the distinction for "replied with no dependencies" vs "never
	// replied". This must hold in the sparse (empty) regime too.
	empty := New(8).Snapshot()
	if empty.IsZero() {
		t.Fatal("snapshot of an empty set must be present")
	}
	if got := FromBools(make([]bool, 8)).Snapshot(); got.IsZero() {
		t.Fatal("snapshot of an all-false FromBools must be present")
	}
	big := New(1_000_000)
	if big.Snapshot().IsZero() {
		t.Fatal("snapshot of a large empty sparse set must be present")
	}
	big.Set(5)
	big.Reset()
	if big.Snapshot().IsZero() {
		t.Fatal("snapshot after Reset demotion must be present")
	}
}

func TestOrFoldsSnapshots(t *testing.T) {
	s := New(130)
	s.Set(0)
	other := New(130)
	other.Set(64)
	other.Set(129)
	s.Or(other.Snapshot())
	for _, i := range []int{0, 64, 129} {
		if !s.Test(i) {
			t.Fatalf("bit %d missing after Or", i)
		}
	}
	if s.Count() != 3 {
		t.Fatalf("Count=%d want 3", s.Count())
	}
	// Or with an absent snapshot is a no-op, including on a shared set.
	snap := s.Snapshot()
	s.Or(Snapshot{})
	if payload(s.ids, s.w) != payload(snap.ids, snap.w) {
		t.Fatal("Or(absent) must not trigger a copy")
	}
	// Or with an already-contained sparse operand is also copy-free.
	s.Or(other.Snapshot())
	if payload(s.ids, s.w) != payload(snap.ids, snap.w) {
		t.Fatal("Or(subset) must not trigger a copy")
	}
}

func TestCloneAndMutableAreIndependent(t *testing.T) {
	s := New(70)
	s.Set(69)
	c := s.Clone()
	c.Set(1)
	if s.Test(1) {
		t.Fatal("Clone shares storage")
	}
	m := s.Snapshot().Mutable()
	m.Set(2)
	if s.Test(2) {
		t.Fatal("Snapshot.Mutable shares storage")
	}
	if !m.Test(69) {
		t.Fatal("Mutable lost bits")
	}
}

func TestResetWhileSharedAllocatesFresh(t *testing.T) {
	s := New(64)
	s.Set(7)
	snap := s.Snapshot()
	s.Reset()
	if !snap.Test(7) {
		t.Fatal("Reset clobbered snapshot")
	}
	s.Set(3)
	if snap.Test(3) {
		t.Fatal("post-Reset set still shares snapshot words")
	}
}

// TestSparseStaysSmall pins the tentpole claim: a million-bit set with 50
// set bits costs ~50 id slots, not ~15,625 dense words.
func TestSparseStaysSmall(t *testing.T) {
	s := New(1_000_000)
	for i := 0; i < 50; i++ {
		s.Set(i * 20_000)
	}
	if s.dense {
		t.Fatal("50 bits in 1M must stay sparse")
	}
	if len(s.ids) != 50 {
		t.Fatalf("sparse payload has %d slots, want 50", len(s.ids))
	}
	if s.Count() != 50 || s.NextSet(0) != 0 || s.NextSet(1) != 20_000 {
		t.Fatal("sparse reads wrong")
	}
}

// TestPromotionDemotionBoundary walks the density threshold exactly:
// maxSparse(n) bits stay sparse, one more promotes to dense words, Reset
// demotes back to the empty sparse form, and snapshots taken on either
// side of each transition stay immutable.
func TestPromotionDemotionBoundary(t *testing.T) {
	for _, n := range []int{64, 256, 130_000, 1_000_000} {
		s := New(n)
		limit := maxSparse(n)
		for i := 0; i < limit; i++ {
			s.Set(i * 2)
		}
		if s.dense {
			t.Fatalf("n=%d: %d bits promoted early", n, limit)
		}
		atLimit := s.Snapshot()
		s.Set(2*limit + 1)
		if !s.dense {
			t.Fatalf("n=%d: %d bits did not promote", n, limit+1)
		}
		if atLimit.dense || atLimit.Count() != limit {
			t.Fatalf("n=%d: promotion mutated the sparse snapshot", n)
		}
		if s.Count() != limit+1 || !s.Test(2*limit+1) || !s.Test(0) {
			t.Fatalf("n=%d: bits lost across promotion", n)
		}
		denseSnap := s.Snapshot()
		s.Reset()
		if s.dense || s.Any() {
			t.Fatalf("n=%d: Reset did not demote to empty sparse", n)
		}
		if denseSnap.Count() != limit+1 {
			t.Fatalf("n=%d: demotion mutated the dense snapshot", n)
		}
		s.Set(3)
		if s.dense || s.Count() != 1 || denseSnap.Test(3) && limit > 3 {
			t.Fatalf("n=%d: post-demotion set unusable", n)
		}
	}
}

// refModel is the satellite's reference implementation: a plain
// map[int]bool carrying exactly the set-membership semantics.
type refModel map[int]bool

func (r refModel) bools(n int) []bool {
	out := make([]bool, n)
	for i := range r {
		out[i] = true
	}
	return out
}

// TestAdaptiveModelAgainstMapReference drives randomized op sequences
// (Set/Clear/Or/CopyFrom/Reset/Snapshot/Mutable/NextSet) over two
// set+model pairs at densities straddling the promotion threshold and
// checks every observable against the map reference after each op,
// including snapshot immutability across later mutations.
func TestAdaptiveModelAgainstMapReference(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 200, 5000} {
		for seed := int64(0); seed < 4; seed++ {
			rng := rand.New(rand.NewSource(seed*1000 + int64(n)))
			sets := []*Set{New(n), New(n)}
			refs := []refModel{{}, {}}
			type frozen struct {
				snap Snapshot
				ref  []bool
			}
			var snaps []frozen
			// Bias the index stream so runs cross maxSparse(n) both ways.
			idx := func() int {
				if rng.Intn(2) == 0 {
					return rng.Intn(n)
				}
				return rng.Intn(maxSparse(n)*2+1) % n
			}
			for op := 0; op < 600; op++ {
				which := rng.Intn(2)
				s, ref := sets[which], refs[which]
				other := sets[1-which]
				switch rng.Intn(12) {
				case 0, 1, 2, 3:
					i := idx()
					s.Set(i)
					ref[i] = true
				case 4, 5:
					i := idx()
					s.Clear(i)
					delete(ref, i)
				case 6:
					s.Or(other.Snapshot())
					for i := range refs[1-which] {
						ref[i] = true
					}
				case 7:
					s.CopyFrom(other.Snapshot())
					clear(ref)
					for i := range refs[1-which] {
						ref[i] = true
					}
				case 8:
					s.Reset()
					clear(ref)
				case 9:
					snaps = append(snaps, frozen{s.Snapshot(), ref.bools(n)})
				case 10:
					m := s.Snapshot().Mutable()
					i := idx()
					m.Set(i)
					if !m.Test(i) {
						t.Fatalf("n=%d seed=%d op=%d: Mutable copy lost a write", n, seed, op)
					}
					if m.Test(i) != true || (s.Test(i) != ref[i]) {
						t.Fatalf("n=%d seed=%d op=%d: Mutable write leaked", n, seed, op)
					}
				case 11:
					from := rng.Intn(n)
					want := -1
					for i := from; i < n; i++ {
						if ref[i] {
							want = i
							break
						}
					}
					if got := s.NextSet(from); got != want {
						t.Fatalf("n=%d seed=%d op=%d: NextSet(%d)=%d want %d", n, seed, op, from, got, want)
					}
				}
				// Full-state check each step.
				if s.Count() != len(ref) {
					t.Fatalf("n=%d seed=%d op=%d: Count=%d want %d (dense=%v)", n, seed, op, s.Count(), len(ref), s.dense)
				}
				if s.Any() != (len(ref) > 0) {
					t.Fatalf("n=%d seed=%d op=%d: Any mismatch", n, seed, op)
				}
				for probe := 0; probe < 8; probe++ {
					i := rng.Intn(n)
					if s.Test(i) != ref[i] {
						t.Fatalf("n=%d seed=%d op=%d: Test(%d)=%v want %v (dense=%v)", n, seed, op, i, s.Test(i), ref[i], s.dense)
					}
				}
			}
			for which, s := range sets {
				if !reflect.DeepEqual(s.Bools(), refs[which].bools(n)) {
					t.Fatalf("n=%d seed=%d: final Bools mismatch on set %d", n, seed, which)
				}
			}
			// Every snapshot still reads exactly as at freeze time.
			for k, f := range snaps {
				for i := 0; i < n; i++ {
					if f.snap.Test(i) != f.ref[i] {
						t.Fatalf("n=%d seed=%d: snapshot %d bit %d drifted", n, seed, k, i)
					}
				}
				if !reflect.DeepEqual(f.snap.Bools(), f.ref) {
					t.Fatalf("n=%d seed=%d: snapshot %d Bools drifted", n, seed, k)
				}
			}
		}
	}
}

// BenchmarkSnapshot proves snapshotting is allocation-free: the whole
// point of piggybacking by reference.
func BenchmarkSnapshot(b *testing.B) {
	s := New(4096)
	s.Set(1)
	b.ReportAllocs()
	b.ResetTimer()
	var alive Snapshot
	for i := 0; i < b.N; i++ {
		alive = s.Snapshot()
	}
	_ = alive
	if b.N > 0 && testing.AllocsPerRun(100, func() { _ = s.Snapshot() }) != 0 {
		b.Fatal("Snapshot allocates")
	}
}

// BenchmarkSparseOrSteadyState pins the satellite claim: folding an
// already-absorbed sparse dependency set into a million-bit sparse vector
// is 0 allocs/op (the engine's steady-state R-vector update at scale).
func BenchmarkSparseOrSteadyState(b *testing.B) {
	const n = 1_000_000
	s := New(n)
	o := New(n)
	for i := 0; i < 50; i++ {
		s.Set(i * 101)
		o.Set(i * 101)
	}
	snap := o.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Or(snap)
	}
	if b.N > 0 && testing.AllocsPerRun(100, func() { s.Or(snap) }) != 0 {
		b.Fatal("steady-state sparse Or allocates")
	}
}

// BenchmarkSparseOrGrowing measures the insert path: each Or lands one
// new id in a 50-id set (amortized 0 allocs once capacity has grown).
func BenchmarkSparseOrGrowing(b *testing.B) {
	const n = 1_000_000
	base := New(n)
	for i := 0; i < 50; i++ {
		base.Set(i * 101)
	}
	fresh := New(n)
	fresh.Set(999_999)
	snap := fresh.Snapshot()
	s := base.Clone()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.CopyFrom(base.Snapshot())
		s.Or(snap)
	}
}

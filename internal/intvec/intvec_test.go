package intvec

import (
	"math/rand"
	"testing"
)

// checkAgainst compares every entry of v with the reference map, and
// Each's enumeration with the map's nonzero entries.
func checkAgainst(t *testing.T, v *Vec, ref map[int]int, what string) {
	t.Helper()
	for k := 0; k < int(v.n); k++ {
		if got := v.At(k); got != ref[k] {
			t.Fatalf("%s: entry %d = %d, want %d", what, k, got, ref[k])
		}
	}
	last, seen := -1, 0
	v.Each(func(k, val int) {
		if k <= last {
			t.Fatalf("%s: Each not ascending: %d after %d", what, k, last)
		}
		if val == 0 || ref[k] != val {
			t.Fatalf("%s: Each gave %d=%d, reference %d", what, k, val, ref[k])
		}
		last = k
		seen++
	})
	want := 0
	for _, val := range ref {
		if val != 0 {
			want++
		}
	}
	if seen != want {
		t.Fatalf("%s: Each gave %d entries, want %d", what, seen, want)
	}
}

func copyMap(m map[int]int) map[int]int {
	c := make(map[int]int, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

// TestVecMatchesMap drives random Set/At/Load/Reset/Freeze sequences
// against a map[int]int reference, through the sparse→dense promotion,
// and checks that every frozen vector keeps its entries whatever the
// builder writes afterwards.
func TestVecMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := []int{1, 7, 64, 300, 1024}[seed%5]
		v := New(n)
		ref := map[int]int{}
		type frozen struct {
			v   Vec
			ref map[int]int
		}
		var frozens []frozen
		for step := 0; step < 3000; step++ {
			switch op := r.Intn(100); {
			case op < 70:
				k, val := r.Intn(n), r.Intn(50)-10
				v.Set(k, val)
				ref[k] = val
			case op < 80:
				k := r.Intn(n)
				if got := v.At(k); got != ref[k] {
					t.Fatalf("seed %d step %d: At(%d) = %d, want %d", seed, step, k, got, ref[k])
				}
			case op < 88:
				frozens = append(frozens, frozen{v.Freeze(), copyMap(ref)})
			case op < 95 && len(frozens) > 0:
				f := frozens[r.Intn(len(frozens))]
				v.Load(f.v)
				ref = copyMap(f.ref)
			case op < 97:
				v.Load(Vec{})
				ref = map[int]int{}
			default:
				v.Reset()
				ref = map[int]int{}
			}
		}
		checkAgainst(t, &v, ref, "final")
		for i := range frozens {
			checkAgainst(t, &frozens[i].v, frozens[i].ref, "frozen")
		}
	}
}

// TestDenseThresholdPinned pins the promotion rule: a vector of n entries
// stays sparse through n/8 present entries and turns dense on the next.
// Zero writes to absent entries store nothing.
func TestDenseThresholdPinned(t *testing.T) {
	if denseFraction != 8 {
		t.Fatalf("denseFraction = %d, want 8", denseFraction)
	}
	const n = 1024
	v := New(n)
	for k := 0; k < n; k += 2 {
		v.Set(k, 0)
	}
	if len(v.s) != 0 {
		t.Fatalf("zero writes stored %d ints", len(v.s))
	}
	for k := 0; k < n/8; k++ {
		v.Set(n-1-k, k+1)
	}
	if v.dense || len(v.s) != 2*n/8 {
		t.Fatalf("after n/8 entries: dense %v, %d ints, want sparse with %d", v.dense, len(v.s), 2*n/8)
	}
	frozen := v.Freeze()
	v.Set(0, 7)
	if !v.dense || len(v.s) != n {
		t.Fatalf("after n/8+1 entries: dense %v, %d ints, want dense with %d", v.dense, len(v.s), n)
	}
	if frozen.dense || frozen.At(0) != 0 || frozen.At(n-1) != 1 {
		t.Fatal("promotion changed a frozen vector")
	}
	v.Reset()
	if v.dense || v.At(0) != 0 || v.At(n-1) != 0 {
		t.Fatal("Reset did not demote to an empty sparse vector")
	}
}

// TestLoadSharesUntilWrite: loading a frozen vector copies nothing, and
// the first write copies once.
func TestLoadSharesUntilWrite(t *testing.T) {
	src := New(1024)
	for k := 0; k < 50; k++ {
		src.Set(3*k, k+1)
	}
	frozen := src.Freeze()
	var v Vec
	v = New(1024)
	if allocs := testing.AllocsPerRun(100, func() {
		v.Load(frozen)
		if v.At(3) != 2 {
			t.Fatal("loaded vector lost an entry")
		}
	}); allocs != 0 {
		t.Fatalf("Load made %v allocations, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		v.Load(frozen)
		v.Set(1, 9)
		v.Set(2, 9)
	}); allocs != 1 {
		t.Fatalf("Load and two writes made %v allocations, want 1", allocs)
	}
	if frozen.At(1) != 0 || frozen.At(2) != 0 {
		t.Fatal("a write after Load changed the frozen source")
	}
}

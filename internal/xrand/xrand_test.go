package xrand_test

import (
	"math"
	"testing"

	"mutablecp/internal/xrand"
)

func TestDeterminism(t *testing.T) {
	a := xrand.New(42)
	b := xrand.New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seeds diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	a := xrand.New(1)
	b := xrand.New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d collisions between different seeds", same)
	}
}

func TestDeriveIndependence(t *testing.T) {
	parent := xrand.New(7)
	c1 := parent.Derive(1)
	c2 := parent.Derive(2)
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("derived streams with different labels coincide")
	}
	// Deriving must not consume parent state.
	p2 := xrand.New(7)
	p2.Derive(1)
	p2.Derive(2)
	a := xrand.New(7)
	if a.Uint64() != p2.Uint64() {
		t.Fatal("Derive consumed parent state")
	}
}

func TestDeriveDeterministic(t *testing.T) {
	a := xrand.New(7).Derive(5)
	b := xrand.New(7).Derive(5)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("derived streams with equal labels diverged")
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := xrand.New(3)
	for i := 0; i < 10000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := xrand.New(5)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnRange(t *testing.T) {
	s := xrand.New(9)
	seen := make([]bool, 10)
	for i := 0; i < 10000; i++ {
		v := s.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	for v, ok := range seen {
		if !ok {
			t.Fatalf("Intn never produced %d", v)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for Intn(0)")
		}
	}()
	xrand.New(1).Intn(0)
}

func TestExpMean(t *testing.T) {
	s := xrand.New(11)
	const rate = 4.0
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		v := s.Exp(rate)
		if v < 0 {
			t.Fatalf("negative exponential draw %v", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-1/rate) > 0.01 {
		t.Fatalf("exp mean = %v, want ~%v", mean, 1/rate)
	}
}

func TestExpPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for Exp(0)")
		}
	}()
	xrand.New(1).Exp(0)
}

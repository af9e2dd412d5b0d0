package dyadic_test

import (
	"testing"

	"mutablecp/internal/dyadic"
)

func BenchmarkHalve(b *testing.B) {
	w := dyadic.One()
	for i := 0; i < b.N; i++ {
		w = w.Half()
		if w.IsZero() {
			b.Fatal("halving reached zero")
		}
		if i%256 == 255 {
			w = dyadic.One()
		}
	}
}

func BenchmarkAdd(b *testing.B) {
	shares := make([]dyadic.Weight, 64)
	w := dyadic.One()
	for i := range shares {
		w = w.Half()
		shares[i] = w
	}
	var total dyadic.Sum
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total.Reset()
		total.Add(w)
		for _, s := range shares {
			total.Add(s)
		}
		if !total.IsOne() {
			b.Fatal("lost weight")
		}
	}
}

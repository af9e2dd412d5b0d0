// Package xrand provides deterministic random streams for the simulator.
//
// Each simulated entity (workload generator, checkpoint scheduler) draws
// from its own stream derived from a root seed, so adding a new consumer of
// randomness never perturbs the draws seen by existing ones. The generator
// is SplitMix64, which is tiny, fast, and has a guaranteed period of 2^64.
package xrand

import "math"

// Stream is a deterministic pseudo-random stream. The zero value is not
// usable; construct streams with New or Derive.
type Stream struct {
	state uint64
}

// New returns a stream seeded with seed.
func New(seed uint64) *Stream {
	return &Stream{state: seed}
}

// Derive returns an independent child stream for the given label. Distinct
// labels produce decorrelated streams from the same parent seed.
func (s *Stream) Derive(label uint64) *Stream {
	// Mix the label through one SplitMix64 round of a copy of our state.
	c := Stream{state: s.state + 0x9e3779b97f4a7c15*(label+1)}
	c.Uint64()
	return &c
}

// Uint64 returns the next 64 random bits (SplitMix64).
func (s *Stream) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Exp returns an exponentially distributed value with the given rate
// (events per unit time); the mean is 1/rate. It panics if rate <= 0.
func (s *Stream) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("xrand: Exp with non-positive rate")
	}
	u := s.Float64()
	// Avoid log(0).
	for u == 0 {
		u = s.Float64()
	}
	return -math.Log(u) / rate
}

// Package stats provides the small statistical toolkit used by the
// experiment harness: streaming mean/variance accumulation and 95%
// confidence intervals, matching the reporting style of the paper's §5.2
// ("the 95 percent confidence interval for the measured data is less than
// 10 percent of the sample mean").
package stats

import (
	"fmt"
	"math"
)

// Sample accumulates observations with Welford's streaming algorithm.
// The zero value is an empty sample ready for use.
type Sample struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add records one observation.
func (s *Sample) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// AddN records count copies of the observation x. Sample is public API
// through mutablecp.ExperimentResult; TestAddN pins AddN to count Adds.
func (s *Sample) AddN(x float64, count int) {
	for i := 0; i < count; i++ {
		s.Add(x)
	}
}

// N returns the number of observations.
func (s *Sample) N() int { return s.n }

// Mean returns the sample mean (0 for an empty sample).
func (s *Sample) Mean() float64 { return s.mean }

// Min returns the smallest observation (0 for an empty sample).
func (s *Sample) Min() float64 { return s.min }

// Max returns the largest observation (0 for an empty sample).
func (s *Sample) Max() float64 { return s.max }

// Variance returns the unbiased sample variance.
func (s *Sample) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// StdDev returns the sample standard deviation.
func (s *Sample) StdDev() float64 { return math.Sqrt(s.Variance()) }

// StdErr returns the standard error of the mean.
func (s *Sample) StdErr() float64 {
	if s.n == 0 {
		return 0
	}
	return s.StdDev() / math.Sqrt(float64(s.n))
}

// CI95 returns the half-width of the 95% confidence interval for the mean,
// using the normal approximation (z = 1.96). The harness collects enough
// samples for the approximation to be adequate, mirroring the paper.
func (s *Sample) CI95() float64 { return 1.96 * s.StdErr() }

// CI95Relative returns CI95 / |mean|, or 0 when the mean is 0. The paper
// reports this staying under 0.10 for most data points. TestCI95Relative
// protects the zero-mean guard.
func (s *Sample) CI95Relative() float64 {
	if s.mean == 0 {
		return 0
	}
	return s.CI95() / math.Abs(s.mean)
}

// String formats the sample as "mean ± ci95 (n=…)".
func (s *Sample) String() string {
	return fmt.Sprintf("%.4g ± %.2g (n=%d)", s.Mean(), s.CI95(), s.n)
}

// Merge folds the other sample into s. Merging preserves exact counts and
// means; it uses the parallel variance combination formula.
func (s *Sample) Merge(o *Sample) {
	if o.n == 0 {
		return
	}
	if s.n == 0 {
		*s = *o
		return
	}
	n := s.n + o.n
	delta := o.mean - s.mean
	mean := s.mean + delta*float64(o.n)/float64(n)
	m2 := s.m2 + o.m2 + delta*delta*float64(s.n)*float64(o.n)/float64(n)
	min := s.min
	if o.min < min {
		min = o.min
	}
	max := s.max
	if o.max > max {
		max = o.max
	}
	*s = Sample{n: n, mean: mean, m2: m2, min: min, max: max}
}

// Package stats provides the descriptive statistics used throughout the
// AI-tax experiments: summaries with percentiles, coefficients of
// variation, the repository's one mergeable fixed-bucket histogram
// (with its text rendering for distribution figures, paper Fig. 11),
// and streaming regression accumulators.
package stats

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Sample accumulates float64 observations.
type Sample struct {
	xs     []float64
	sorted bool
}

// NewSample returns an empty sample.
func NewSample() *Sample { return &Sample{} }

// FromDurations builds a sample from durations, in milliseconds.
func FromDurations(ds []time.Duration) *Sample {
	s := NewSample()
	for _, d := range ds {
		s.Add(float64(d) / float64(time.Millisecond))
	}
	return s
}

// FromFloats builds a sample from raw values.
func FromFloats(xs []float64) *Sample {
	s := NewSample()
	for _, x := range xs {
		s.Add(x)
	}
	return s
}

// Add records one observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// N returns the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Values returns a copy of the observations in insertion order.
func (s *Sample) Values() []float64 {
	out := make([]float64, len(s.xs))
	copy(out, s.xs)
	return out
}

func (s *Sample) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// Mean returns the arithmetic mean, or 0 for an empty sample.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// Variance returns the population variance.
func (s *Sample) Variance() float64 {
	n := len(s.xs)
	if n == 0 {
		return 0
	}
	m := s.Mean()
	acc := 0.0
	for _, x := range s.xs {
		d := x - m
		acc += d * d
	}
	return acc / float64(n)
}

// StdDev returns the population standard deviation.
func (s *Sample) StdDev() float64 { return math.Sqrt(s.Variance()) }

// CV returns the coefficient of variation (stddev/mean), or 0 when the
// mean is 0.
func (s *Sample) CV() float64 {
	m := s.Mean()
	if m == 0 {
		return 0
	}
	return s.StdDev() / m
}

// Min returns the smallest observation.
func (s *Sample) Min() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.ensureSorted()
	return s.xs[0]
}

// Max returns the largest observation.
func (s *Sample) Max() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.ensureSorted()
	return s.xs[len(s.xs)-1]
}

// Percentile returns the p-th percentile (0..100) by linear interpolation.
func (s *Sample) Percentile(p float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.ensureSorted()
	if p <= 0 {
		return s.xs[0]
	}
	if p >= 100 {
		return s.xs[len(s.xs)-1]
	}
	rank := p / 100 * float64(len(s.xs)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.xs[lo]
	}
	frac := rank - float64(lo)
	return s.xs[lo]*(1-frac) + s.xs[hi]*frac
}

// Median returns the 50th percentile.
func (s *Sample) Median() float64 { return s.Percentile(50) }

// IQR returns the interquartile range.
func (s *Sample) IQR() float64 { return s.Percentile(75) - s.Percentile(25) }

// MaxDeviationFromMedian returns the largest relative deviation of any
// observation from the median, as a fraction of the median (the paper
// reports "as much as 30% from the median").
func (s *Sample) MaxDeviationFromMedian() float64 {
	med := s.Median()
	if med == 0 {
		return 0
	}
	worst := 0.0
	for _, x := range s.xs {
		d := math.Abs(x-med) / med
		if d > worst {
			worst = d
		}
	}
	return worst
}

// Summary is a snapshot of a sample's descriptive statistics.
type Summary struct {
	N                  int
	Mean, StdDev, CV   float64
	Min, P25, Median   float64
	P75, P90, P99, Max float64
	MaxDevFromMedian   float64
}

// Summarize computes a Summary.
func (s *Sample) Summarize() Summary {
	return Summary{
		N:                s.N(),
		Mean:             s.Mean(),
		StdDev:           s.StdDev(),
		CV:               s.CV(),
		Min:              s.Min(),
		P25:              s.Percentile(25),
		Median:           s.Median(),
		P75:              s.Percentile(75),
		P90:              s.Percentile(90),
		P99:              s.Percentile(99),
		Max:              s.Max(),
		MaxDevFromMedian: s.MaxDeviationFromMedian(),
	}
}

// String renders the summary on one line.
func (sm Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3f sd=%.3f cv=%.1f%% min=%.3f p50=%.3f p90=%.3f p99=%.3f max=%.3f maxdev=%.1f%%",
		sm.N, sm.Mean, sm.StdDev, sm.CV*100, sm.Min, sm.Median, sm.P90, sm.P99, sm.Max, sm.MaxDevFromMedian*100)
}

// GeoMean returns the geometric mean of positive values; zero or negative
// inputs are skipped.
func GeoMean(xs []float64) float64 {
	acc, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			acc += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(acc / float64(n))
}

// Ratio returns a/b, or 0 when b is 0.
func Ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// MeanDuration returns the arithmetic mean of durations.
func MeanDuration(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

// LinFit is a least-squares line fit y = Slope*x + Intercept with its
// coefficient of determination.
type LinFit struct {
	Slope, Intercept, R2 float64
}

// LinReg fits a straight line to (x, y) pairs. It panics on mismatched
// lengths; fewer than two points yield a zero fit.
func LinReg(xs, ys []float64) LinFit {
	if len(xs) != len(ys) {
		panic("stats: LinReg length mismatch")
	}
	n := float64(len(xs))
	if n < 2 {
		return LinFit{}
	}
	var sx, sy, sxx, sxy, syy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
		syy += ys[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return LinFit{Intercept: sy / n, R2: 1}
	}
	slope := (n*sxy - sx*sy) / den
	intercept := (sy - slope*sx) / n
	// R^2 = 1 - SSres/SStot.
	ssTot := syy - sy*sy/n
	var ssRes float64
	for i := range xs {
		d := ys[i] - (slope*xs[i] + intercept)
		ssRes += d * d
	}
	r2 := 1.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	}
	return LinFit{Slope: slope, Intercept: intercept, R2: r2}
}

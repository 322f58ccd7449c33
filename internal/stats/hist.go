package stats

import (
	"fmt"
	"math"
	"strings"
)

// Histogram is a fixed-bucket, bounded-memory histogram: counts per
// bucket plus count/sum/min/max. Bucket i holds the values v with
// bounds[i-1] < v <= bounds[i] (upper-inclusive, like Prometheus "le"
// edges); a final overflow bucket holds everything above the last
// bound. Two histograms with the same bounds merge exactly (counts
// add), and quantiles are deterministic linear interpolations inside
// the bucket holding the requested rank, so any merge order of the
// same parts reports the same percentiles. This is the one histogram
// of the repository: the telemetry registry, the windowed recorder,
// the fleet fold and the Fig. 11 ASCII rows all use it.
type Histogram struct {
	bounds []float64
	counts []int64 // len(bounds)+1; last is the +Inf overflow bucket
	count  int64
	sum    float64
	min    float64
	max    float64
}

// NewHistogram returns an empty histogram over the given bucket upper
// bounds, which must be strictly increasing. The bounds slice is
// shared, not copied: histograms built from one slice merge without a
// value scan.
func NewHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("stats: bounds not increasing at %d: %g <= %g", i, bounds[i], bounds[i-1]))
		}
	}
	return &Histogram{bounds: bounds, counts: make([]int64, len(bounds)+1)}
}

// HistogramOf bins all of a sample's observations into bins equal-width
// buckets spanning [min, max·1.0000001], so the maximum lands inside
// the last bounded bucket rather than on its edge.
func HistogramOf(s *Sample, bins int) *Histogram {
	if bins <= 0 {
		panic("stats: HistogramOf needs at least one bin")
	}
	lo, hi := s.Min(), s.Max()
	if hi <= lo {
		hi = lo + 1
	}
	width := (hi*1.0000001 - lo) / float64(bins)
	bounds := make([]float64, bins)
	for i := range bounds {
		bounds[i] = lo + float64(i+1)*width
	}
	h := NewHistogram(bounds)
	for _, x := range s.xs {
		h.Observe(x)
	}
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.counts[h.bucket(v)]++
}

// bucket returns the index of the bucket v lands in (binary search:
// first bound >= v; len(bounds) is the overflow bucket).
func (h *Histogram) bucket(v float64) int {
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Buckets returns the bucket upper bounds and the per-bucket counts,
// whose final entry is the +Inf overflow bucket. Both slices are the
// histogram's own storage: read them, do not modify them.
func (h *Histogram) Buckets() (bounds []float64, counts []int64) { return h.bounds, h.counts }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count }

// Sum returns the observation sum.
func (h *Histogram) Sum() float64 { return h.sum }

// Min returns the smallest observation (0 when empty).
func (h *Histogram) Min() float64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() float64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Mean returns the observation mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Quantile estimates the q-quantile (q in [0,1]) by linear
// interpolation inside the bucket holding the nearest-rank observation,
// clamped to the observed [min, max] range; 0 when empty. It is a pure
// function of the bucket counts and extremes, so merged histograms
// report identical quantiles regardless of merge order.
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	rank := int64(NearestRank(int(h.count), q)) + 1
	var cum int64
	for i, n := range h.counts {
		if n == 0 {
			continue
		}
		cum += n
		if cum < rank {
			continue
		}
		lo := h.min
		if i > 0 && h.bounds[i-1] > lo {
			lo = h.bounds[i-1]
		}
		hi := h.max
		if i < len(h.bounds) && h.bounds[i] < hi {
			hi = h.bounds[i]
		}
		if hi < lo {
			hi = lo
		}
		// Position of the rank within this bucket's occupants.
		frac := float64(rank-(cum-n)) / float64(n)
		return lo + (hi-lo)*frac
	}
	return h.max
}

// NearestRank returns the index, in a sorted slice of n > 0 values, of
// the nearest-rank q-quantile: ceil(q·n) - 1, clamped to [0, n-1]. It
// is the repository's one rank rule: exact telemetry quantiles, the
// serving report, the brownout gate's p99 and the bucket in which
// Quantile interpolates all pick their rank through it.
func NearestRank(n int, q float64) int {
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		return 0
	}
	if idx >= n {
		return n - 1
	}
	return idx
}

// Merge folds other into h. Both histograms must share bounds (the
// usual case: every series in a recorder uses the recorder's bounds);
// merging histograms whose bounds differ — in length or in any value —
// panics rather than silently producing a miscounted distribution.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.count == 0 {
		return
	}
	if len(h.bounds) != len(other.bounds) {
		panic("stats: merging histograms with different bounds")
	}
	// Same backing array (the common case: both built from one bounds
	// slice) needs no value scan.
	if len(h.bounds) > 0 && &h.bounds[0] != &other.bounds[0] {
		for i := range h.bounds {
			if h.bounds[i] != other.bounds[i] {
				panic("stats: merging histograms with different bounds")
			}
		}
	}
	if h.count == 0 || other.min < h.min {
		h.min = other.min
	}
	if h.count == 0 || other.max > h.max {
		h.max = other.max
	}
	h.count += other.count
	h.sum += other.sum
	for i, c := range other.counts {
		h.counts[i] += c
	}
}

// Reset empties the histogram in place, keeping its bucket storage, so
// a ring of reused histograms records without allocating.
func (h *Histogram) Reset() {
	h.count = 0
	h.sum = 0
	h.min = 0
	h.max = 0
	for i := range h.counts {
		h.counts[i] = 0
	}
}

// Summary condenses the histogram for export rows.
func (h *Histogram) Summary() HistSummary {
	return HistSummary{
		Count: h.count,
		Sum:   h.sum,
		Min:   h.Min(),
		Max:   h.Max(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
	}
}

// HistSummary is the JSON-exported shape of one histogram.
type HistSummary struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// Render draws the bounded buckets as ASCII rows with bars scaled to
// width characters. Each row is labelled with its bucket's lower edge:
// the observed minimum for row 0, bounds[i-1] for row i. The overflow
// bucket is not drawn (HistogramOf leaves it empty).
func (h *Histogram) Render(width int) string {
	rows := h.counts[:len(h.bounds)]
	peak := int64(0)
	for _, c := range rows {
		if c > peak {
			peak = c
		}
	}
	if peak == 0 {
		peak = 1
	}
	var b strings.Builder
	for i, c := range rows {
		lo := h.Min()
		if i > 0 {
			lo = h.bounds[i-1]
		}
		bar := strings.Repeat("#", int(c*int64(width)/peak))
		fmt.Fprintf(&b, "%10.2f | %-*s %d\n", lo, width, bar, c)
	}
	return b.String()
}

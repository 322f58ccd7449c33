package stats

import (
	"math"
	"sync"
	"testing"
)

// latencyBounds is a 1-1.5-2.5-4-6 ladder per decade from 10 µs to
// 100 s (in ms), the shape of the serving recorder's default bounds.
var latencyBounds = func() []float64 {
	var out []float64
	for _, scale := range []float64{0.01, 0.1, 1, 10, 100, 1000, 10000} {
		for _, l := range []float64{1, 1.5, 2.5, 4, 6} {
			out = append(out, l*scale)
		}
	}
	return append(out, 100000)
}()

func TestHistogramQuantileNearExact(t *testing.T) {
	h := NewHistogram(latencyBounds)
	for i := 0; i < 10000; i++ {
		h.Observe(float64(i) / 10) // uniform 0..999.9 ms
	}
	if h.Count() != 10000 {
		t.Fatalf("count %d", h.Count())
	}
	for _, tc := range []struct{ q, exact float64 }{
		{0.50, 500}, {0.90, 900}, {0.99, 990},
	} {
		got := h.Quantile(tc.q)
		// The 1-1.5-2.5-4-6 ladder gives ~±1 bucket accuracy; at these
		// magnitudes one bucket is at most 400 ms wide.
		if math.Abs(got-tc.exact) > 110 {
			t.Errorf("q%.2f = %.1f, exact %.1f: off by more than a bucket", tc.q, got, tc.exact)
		}
		if got < h.Min() || got > h.Max() {
			t.Errorf("q%.2f = %.1f escapes [%g,%g]", tc.q, got, h.Min(), h.Max())
		}
	}
}

func TestHistogramMergeOrderInvariant(t *testing.T) {
	mk := func(vals ...float64) *Histogram {
		h := NewHistogram(latencyBounds)
		for _, v := range vals {
			h.Observe(v)
		}
		return h
	}
	a := mk(1, 2, 3, 100, 200)
	b := mk(0.5, 50, 5000)
	c := mk(7)

	ab := NewHistogram(latencyBounds)
	ab.Merge(a)
	ab.Merge(b)
	ab.Merge(c)
	ba := NewHistogram(latencyBounds)
	ba.Merge(c)
	ba.Merge(b)
	ba.Merge(a)
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
		if ab.Quantile(q) != ba.Quantile(q) {
			t.Fatalf("q%g differs by merge order: %g vs %g", q, ab.Quantile(q), ba.Quantile(q))
		}
	}
	if ab.Count() != 9 || ab.Sum() != ba.Sum() || ab.Min() != 0.5 || ab.Max() != 5000 {
		t.Fatalf("merged stats wrong: count %d sum %g min %g max %g", ab.Count(), ab.Sum(), ab.Min(), ab.Max())
	}
}

func TestHistogramResetKeepsStorage(t *testing.T) {
	h := NewHistogram(latencyBounds)
	h.Observe(42)
	h.Reset()
	if h.Count() != 0 || h.Sum() != 0 || h.Min() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("reset did not empty the histogram")
	}
	allocs := testing.AllocsPerRun(100, func() {
		h.Observe(13)
		h.Reset()
	})
	if allocs != 0 {
		t.Fatalf("observe+reset allocates %v/op; ring reuse depends on 0", allocs)
	}
}

func TestHistogramMismatchedBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("merge with mismatched bounds did not panic")
		}
	}()
	a := NewHistogram([]float64{1, 2, 3})
	b := NewHistogram([]float64{1, 2})
	b.Observe(1)
	a.Merge(b)
}

// TestMergeEmptyIntoPopulated and its inverse: merging across the empty
// boundary must neither corrupt extremes (the empty side's zero min/max
// must not leak) nor change counts.
func TestMergeEmptyIntoPopulated(t *testing.T) {
	pop := NewHistogram(latencyBounds)
	for _, v := range []float64{5, 7, 11} {
		pop.Observe(v)
	}
	empty := NewHistogram(latencyBounds)

	// populated.Merge(empty) is a no-op.
	pop.Merge(empty)
	if pop.Count() != 3 || pop.Min() != 5 || pop.Max() != 11 || pop.Sum() != 23 {
		t.Fatalf("merge(empty) disturbed state: %+v", pop.Summary())
	}

	// empty.Merge(populated) adopts the populated side exactly,
	// including extremes (min must become 5, not stay at the empty 0).
	empty.Merge(pop)
	if empty.Count() != 3 || empty.Min() != 5 || empty.Max() != 11 || empty.Sum() != 23 {
		t.Fatalf("empty.Merge(populated) wrong: %+v", empty.Summary())
	}
	// Quantiles of the merged copy match the original.
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if empty.Quantile(q) != pop.Quantile(q) {
			t.Fatalf("q%.2f diverged: %g vs %g", q, empty.Quantile(q), pop.Quantile(q))
		}
	}

	// empty.Merge(empty) stays empty.
	e2 := NewHistogram(latencyBounds)
	e2.Merge(NewHistogram(latencyBounds))
	if e2.Count() != 0 || e2.Min() != 0 || e2.Max() != 0 {
		t.Fatalf("empty+empty = %+v", e2.Summary())
	}
	// Merging nil is a no-op.
	pop.Merge(nil)
	if pop.Count() != 3 {
		t.Fatal("merge(nil) disturbed state")
	}
}

// TestMergeCompatibleWindows: two histograms recorded over different
// (mismatched) windows of the same series — disjoint value ranges,
// separately allocated but value-equal bounds slices — merge exactly.
func TestMergeCompatibleWindows(t *testing.T) {
	boundsA := []float64{1, 2, 4, 8, 16}
	boundsB := []float64{1, 2, 4, 8, 16} // equal values, different array
	a, b := NewHistogram(boundsA), NewHistogram(boundsB)
	for i := 0; i < 100; i++ {
		a.Observe(float64(i%4) + 1) // window 1: 1..4
	}
	for i := 0; i < 50; i++ {
		b.Observe(float64(i%8) + 9) // window 2: 9..16
	}
	a.Merge(b)
	if a.Count() != 150 {
		t.Fatalf("count %d, want 150", a.Count())
	}
	if a.Min() != 1 || a.Max() != 16 {
		t.Fatalf("extremes [%g, %g], want [1, 16]", a.Min(), a.Max())
	}
	// Integer-valued observations make float sums exact.
	wantSum := 0.0
	for i := 0; i < 100; i++ {
		wantSum += float64(i%4) + 1
	}
	for i := 0; i < 50; i++ {
		wantSum += float64(i%8) + 9
	}
	if a.Sum() != wantSum {
		t.Fatalf("sum %g, want %g", a.Sum(), wantSum)
	}
}

// TestMergeIncompatibleBoundsPanics: silent miscounting is the failure
// mode being guarded — both a length mismatch and a same-length value
// mismatch must panic.
func TestMergeIncompatibleBoundsPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("length mismatch", func() {
		a, b := NewHistogram([]float64{1, 2}), NewHistogram([]float64{1, 2, 3})
		b.Observe(1)
		a.Merge(b)
	})
	mustPanic("value mismatch", func() {
		a, b := NewHistogram([]float64{1, 2, 4}), NewHistogram([]float64{1, 2, 5})
		b.Observe(1)
		a.Merge(b)
	})
}

// TestNWayMergeExact: N goroutines each fold their own slice of an
// integer-valued stream into a private histogram (run under -race by
// make test); merging the N histograms in a fixed order must reproduce
// the sequential single-histogram count, sum, min and max exactly, and
// byte-for-byte identical bucket quantiles.
func TestNWayMergeExact(t *testing.T) {
	const (
		workers = 8
		perW    = 10_000
	)
	value := func(w, i int) float64 {
		return float64((w*perW+i)%977) + 1 // integers: float sums are exact
	}

	seq := NewHistogram(latencyBounds)
	for w := 0; w < workers; w++ {
		for i := 0; i < perW; i++ {
			seq.Observe(value(w, i))
		}
	}

	parts := make([]*Histogram, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		parts[w] = NewHistogram(latencyBounds)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				parts[w].Observe(value(w, i))
			}
		}()
	}
	wg.Wait()

	merged := NewHistogram(latencyBounds)
	for _, p := range parts {
		merged.Merge(p)
	}
	if merged.Count() != seq.Count() {
		t.Fatalf("count %d, want %d", merged.Count(), seq.Count())
	}
	if merged.Sum() != seq.Sum() {
		t.Fatalf("sum %g, want %g (integer stream must merge exactly)", merged.Sum(), seq.Sum())
	}
	if merged.Min() != seq.Min() || merged.Max() != seq.Max() {
		t.Fatalf("extremes [%g, %g], want [%g, %g]", merged.Min(), merged.Max(), seq.Min(), seq.Max())
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		if merged.Quantile(q) != seq.Quantile(q) {
			t.Fatalf("q%g %g, want %g", q, merged.Quantile(q), seq.Quantile(q))
		}
	}
	// Merge order must not matter for any of the above: reverse order.
	rev := NewHistogram(latencyBounds)
	for i := len(parts) - 1; i >= 0; i-- {
		rev.Merge(parts[i])
	}
	if rev.Count() != seq.Count() || rev.Sum() != seq.Sum() ||
		rev.Min() != seq.Min() || rev.Max() != seq.Max() {
		t.Fatal("reverse-order merge diverged on an integer stream")
	}
}

// TestHistogramUpperInclusiveEdges pins the bucket-edge rule: a value
// equal to a bound lands in that bound's bucket, a value just past it
// in the next, and anything past the last bound in the +Inf bucket.
func TestHistogramUpperInclusiveEdges(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{-3, 0.5, 1, math.Nextafter(1, 2), 2, 3, 4, math.Nextafter(4, 5), 1e9} {
		h.Observe(v)
	}
	bounds, counts := h.Buckets()
	if len(bounds) != 3 || len(counts) != 4 {
		t.Fatalf("bounds %v counts %v: want 3 bounds and 4 buckets", bounds, counts)
	}
	want := []int64{3, 2, 2, 2} // (-inf,1]: -3 0.5 1; (1,2]: 1⁺ 2; (2,4]: 3 4; +Inf: 4⁺ 1e9
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("counts %v, want %v", counts, want)
		}
	}
}

// TestNearestRankMatchesRoundingFormula pins the one rank rule against
// the form the serving report used before it shared NearestRank:
// int(n·q + 0.9999999) - 1. The two agree for every n up to 5,000,000
// at the quantiles the repository reports.
func TestNearestRankMatchesRoundingFormula(t *testing.T) {
	legacy := func(n int, q float64) int {
		idx := int(float64(n)*q+0.9999999) - 1
		return min(max(idx, 0), n-1)
	}
	for _, tc := range []struct {
		n    int
		q    float64
		want int
	}{
		{1, 0.5, 0}, {1, 0.99, 0}, {2, 0.5, 0}, {3, 0.5, 1}, {10, 0.9, 8},
		{10, 0.95, 9}, {100, 0.99, 98}, {1000, 0.999, 998}, {7, 0, 0}, {7, 1, 6},
	} {
		if got := NearestRank(tc.n, tc.q); got != tc.want {
			t.Errorf("NearestRank(%d, %g) = %d, want %d", tc.n, tc.q, got, tc.want)
		}
	}
	limit := 5_000_000
	if testing.Short() {
		limit = 10_000
	}
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 0.999} {
		for n := 1; n <= limit; n++ {
			if a, b := NearestRank(n, q), legacy(n, q); a != b {
				t.Fatalf("n=%d q=%g: NearestRank %d, rounding formula %d", n, q, a, b)
			}
		}
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram(latencyBounds)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i % 1000))
	}
}

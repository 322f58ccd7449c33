package stats

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanStdDev(t *testing.T) {
	s := FromFloats([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if !almost(s.Mean(), 5, 1e-12) {
		t.Fatalf("mean = %v, want 5", s.Mean())
	}
	if !almost(s.StdDev(), 2, 1e-12) {
		t.Fatalf("stddev = %v, want 2", s.StdDev())
	}
	if !almost(s.CV(), 0.4, 1e-12) {
		t.Fatalf("cv = %v, want 0.4", s.CV())
	}
}

func TestEmptySampleIsZero(t *testing.T) {
	s := NewSample()
	if s.Mean() != 0 || s.StdDev() != 0 || s.Median() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Fatal("empty sample statistics must all be zero")
	}
	if s.Summarize().N != 0 {
		t.Fatal("empty summary N must be zero")
	}
}

func TestPercentiles(t *testing.T) {
	s := NewSample()
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if !almost(s.Median(), 50.5, 1e-9) {
		t.Fatalf("median = %v, want 50.5", s.Median())
	}
	if s.Percentile(0) != 1 || s.Percentile(100) != 100 {
		t.Fatalf("extreme percentiles wrong: %v %v", s.Percentile(0), s.Percentile(100))
	}
	if p := s.Percentile(25); !almost(p, 25.75, 1e-9) {
		t.Fatalf("p25 = %v, want 25.75", p)
	}
}

func TestPercentileMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		s := NewSample()
		any := false
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				s.Add(x)
				any = true
			}
		}
		if !any {
			return true
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 5 {
			v := s.Percentile(p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMinMaxBound(t *testing.T) {
	f := func(raw []float64) bool {
		s := NewSample()
		for _, x := range raw {
			if !math.IsNaN(x) && math.Abs(x) < 1e12 {
				s.Add(x)
			}
		}
		if s.N() == 0 {
			return true
		}
		mean := s.Mean()
		return s.Min() <= mean+1e-9 && mean <= s.Max()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxDeviationFromMedian(t *testing.T) {
	s := FromFloats([]float64{10, 10, 10, 13})
	// median 10, worst |13-10|/10 = 0.3
	if !almost(s.MaxDeviationFromMedian(), 0.3, 1e-9) {
		t.Fatalf("maxdev = %v, want 0.3", s.MaxDeviationFromMedian())
	}
}

func TestFromDurations(t *testing.T) {
	s := FromDurations([]time.Duration{10 * time.Millisecond, 20 * time.Millisecond})
	if !almost(s.Mean(), 15, 1e-9) {
		t.Fatalf("mean = %v ms, want 15", s.Mean())
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram([]float64{2, 4, 6, 8, 10})
	for _, x := range []float64{0, 1, 2.5, 5, 9.9, -1, 10, 11} {
		h.Observe(x)
	}
	if h.Count() != 8 {
		t.Fatalf("count = %d, want 8", h.Count())
	}
	_, counts := h.Buckets()
	want := []int64{3, 1, 1, 0, 2, 1} // -1 0 1 | 2.5 | 5 | - | 9.9 10 | +Inf: 11
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("counts = %v, want %v", counts, want)
		}
	}
	if h.Min() != -1 || h.Max() != 11 || !almost(h.Sum(), 38.4, 1e-9) {
		t.Fatalf("min/max/sum = %g/%g/%g, want -1/11/38.4", h.Min(), h.Max(), h.Sum())
	}
}

func TestHistogramOfCoversAll(t *testing.T) {
	s := FromFloats([]float64{1, 2, 3, 4, 5})
	h := HistogramOf(s, 4)
	bounds, counts := h.Buckets()
	if len(bounds) != 4 {
		t.Fatalf("%d bounded buckets, want 4", len(bounds))
	}
	sum := int64(0)
	for _, c := range counts[:len(bounds)] {
		sum += c
	}
	if sum != 5 || counts[len(bounds)] != 0 || h.Count() != 5 {
		t.Fatalf("histogram lost observations: bounded=%d overflow=%d", sum, counts[len(bounds)])
	}
	// The Fig. 11 view: one row per bounded bucket, labelled with the
	// bucket's lower edge (the minimum for row 0), bars scaled to the
	// tallest row.
	want := "      1.00 | ########## 2\n" +
		"      2.00 | #####      1\n" +
		"      3.00 | #####      1\n" +
		"      4.00 | #####      1\n"
	if got := h.Render(10); got != want {
		t.Fatalf("render:\n%s\nwant:\n%s", got, want)
	}
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{1, 100}); !almost(g, 10, 1e-9) {
		t.Fatalf("geomean = %v, want 10", g)
	}
	if g := GeoMean([]float64{0, -5}); g != 0 {
		t.Fatalf("geomean of non-positive = %v, want 0", g)
	}
}

func TestRatio(t *testing.T) {
	if Ratio(10, 4) != 2.5 {
		t.Fatal("ratio wrong")
	}
	if Ratio(1, 0) != 0 {
		t.Fatal("ratio by zero must be 0")
	}
}

func TestMeanDuration(t *testing.T) {
	if MeanDuration(nil) != 0 {
		t.Fatal("empty mean duration must be 0")
	}
	ds := []time.Duration{time.Millisecond, 3 * time.Millisecond}
	if MeanDuration(ds) != 2*time.Millisecond {
		t.Fatalf("mean = %v, want 2ms", MeanDuration(ds))
	}
}

func TestSummaryString(t *testing.T) {
	s := FromFloats([]float64{1, 2, 3})
	if s.Summarize().String() == "" {
		t.Fatal("summary string empty")
	}
}

func TestIQR(t *testing.T) {
	s := NewSample()
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if iqr := s.IQR(); !almost(iqr, 49.5, 1e-9) {
		t.Fatalf("iqr = %v, want 49.5", iqr)
	}
}

func TestLinRegPerfectLine(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4}
	ys := []float64{1, 3, 5, 7, 9} // y = 2x + 1
	f := LinReg(xs, ys)
	if !almost(f.Slope, 2, 1e-9) || !almost(f.Intercept, 1, 1e-9) || !almost(f.R2, 1, 1e-9) {
		t.Fatalf("fit = %+v", f)
	}
}

func TestLinRegNoisy(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{0, 1.2, 1.8, 3.1}
	f := LinReg(xs, ys)
	if f.Slope < 0.8 || f.Slope > 1.2 {
		t.Fatalf("slope = %v", f.Slope)
	}
	if f.R2 < 0.9 {
		t.Fatalf("r2 = %v", f.R2)
	}
}

func TestLinRegDegenerate(t *testing.T) {
	if f := LinReg(nil, nil); f.Slope != 0 {
		t.Fatal("empty fit must be zero")
	}
	// Vertical data (all same x) must not divide by zero.
	f := LinReg([]float64{2, 2, 2}, []float64{1, 2, 3})
	if f.Slope != 0 {
		t.Fatalf("vertical fit slope = %v", f.Slope)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch must panic")
		}
	}()
	LinReg([]float64{1}, []float64{1, 2})
}

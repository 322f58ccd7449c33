package telemetry

import (
	"bufio"
	"fmt"
	"maps"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
)

func TestStreamingRegistryBoundedAndEstimated(t *testing.T) {
	exact := NewRegistry()
	stream := NewStreamingRegistry()
	if !stream.Streaming() || exact.Streaming() {
		t.Fatal("Streaming() flags wrong")
	}
	// Uniform 0..999 ms: exact p50 is 499/500-ish, the streaming
	// estimate must land in the right bucket neighbourhood.
	for i := 0; i < 1000; i++ {
		v := float64(i)
		exact.Observe("lat_ms", v)
		stream.Observe("lat_ms", v)
	}
	if exact.Count("lat_ms") != 1000 || stream.Count("lat_ms") != 1000 {
		t.Fatalf("counts: exact %d stream %d", exact.Count("lat_ms"), stream.Count("lat_ms"))
	}
	if exact.Sum("lat_ms") != stream.Sum("lat_ms") {
		t.Fatal("sums diverge between modes")
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		e, s := exact.Quantile("lat_ms", q), stream.Quantile("lat_ms", q)
		// The coarse default buckets put the tolerance at one bucket
		// width around the exact rank.
		if math.Abs(e-s) > 260 {
			t.Errorf("q%.2f: exact %.1f stream %.1f too far apart", q, e, s)
		}
		if s < 0 || s > 999 {
			t.Errorf("q%.2f: streaming estimate %.1f escapes observed range", q, s)
		}
	}
}

func TestStreamingQuantileClampedToObservedRange(t *testing.T) {
	r := NewStreamingRegistry()
	r.Observe("x", 3)
	r.Observe("x", 3)
	r.Observe("x", 3)
	// All mass in one bucket: every quantile must be within [min,max].
	for _, q := range []float64{0, 0.5, 1} {
		if got := r.Quantile("x", q); got != 3 {
			t.Fatalf("q%g = %g, want 3 (min==max clamp)", q, got)
		}
	}
}

func TestMergeFromStreamingDegradesNotLies(t *testing.T) {
	src := NewStreamingRegistry()
	for i := 0; i < 100; i++ {
		src.Observe("m", float64(i))
	}
	dst := NewRegistry()
	dst.Observe("m", 50)
	dst.Merge(src)
	if got := dst.Count("m"); got != 101 {
		t.Fatalf("merged count %d, want 101", got)
	}
	// The destination histogram no longer has the raw values, so the
	// quantile must be the bucket estimate — within the observed range.
	if q := dst.Quantile("m", 0.99); q < 0 || q > 99 {
		t.Fatalf("post-merge p99 %g escapes observed range", q)
	}
	// Merging streaming into streaming stays exact on counts.
	dst2 := NewStreamingRegistry()
	dst2.Merge(src)
	dst2.Merge(src)
	if got := dst2.Count("m"); got != 200 {
		t.Fatalf("double merge count %d, want 200", got)
	}
}

// TestStreamingMemoryFlatAt1M is the bounded-bytes gate from the
// serving roadmap: one million observations through a streaming
// registry must not grow the heap with the observation count (the exact
// registry would retain 8 MB of float64s for the same stream).
func TestStreamingMemoryFlatAt1M(t *testing.T) {
	r := NewStreamingRegistry()
	series := Labeled("aitax_serve_latency_ms", "model", "MobileNet 1.0 v1")
	r.Observe(series, 1) // allocate the histogram before the baseline
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 1_000_000; i++ {
		r.Observe(series, float64(i%1000))
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if r.Count(series) != 1_000_001 {
		t.Fatalf("count %d", r.Count(series))
	}
	growth := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	// Generous slack for runtime noise; the failure mode we guard
	// against (retained observations) would cost ≥ 8 MB.
	if growth > 1<<20 {
		t.Fatalf("heap grew %d bytes over 1M streaming observations; want flat (<1MB)", growth)
	}
}

// TestRegistryConcurrentHammer drives one registry from many goroutines
// under -race: counters, gauges and a shared streaming histogram all
// take concurrent traffic, and the totals must come out exact.
func TestRegistryConcurrentHammer(t *testing.T) {
	r := NewStreamingRegistry()
	const workers = 16
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Inc("hits_total")
				r.Set("last_worker", float64(w))
				r.Observe("lat_ms", float64(i%100))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("hits_total"); got != workers*perWorker {
		t.Fatalf("counter %v, want %d", got, workers*perWorker)
	}
	if got := r.Count("lat_ms"); got != workers*perWorker {
		t.Fatalf("histogram count %v, want %d", got, workers*perWorker)
	}
	if q := r.Quantile("lat_ms", 0.5); q < 0 || q > 99 {
		t.Fatalf("hammered p50 %g escapes observed range", q)
	}
}

// parsePromLabels recovers the label map from one Prometheus series
// name, undoing the text-format escapes — the round-trip half of the
// label-escaping contract.
func parsePromLabels(t *testing.T, series string) map[string]string {
	t.Helper()
	open := strings.IndexByte(series, '{')
	if open < 0 || !strings.HasSuffix(series, "}") {
		t.Fatalf("series %q has no label block", series)
	}
	body := series[open+1 : len(series)-1]
	out := map[string]string{}
	for len(body) > 0 {
		eq := strings.IndexByte(body, '=')
		if eq < 0 || len(body) < eq+2 || body[eq+1] != '"' {
			t.Fatalf("malformed label block at %q", body)
		}
		key := body[:eq]
		var val strings.Builder
		i := eq + 2
		for {
			if i >= len(body) {
				t.Fatalf("unterminated label value in %q", body)
			}
			c := body[i]
			if c == '"' {
				i++
				break
			}
			if c == '\\' {
				if i+1 >= len(body) {
					t.Fatalf("dangling escape in %q", body)
				}
				switch body[i+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					t.Fatalf("unknown escape \\%c in %q", body[i+1], body)
				}
				i += 2
				continue
			}
			if c == '\n' {
				t.Fatalf("raw newline leaked into series %q", series)
			}
			val.WriteByte(c)
			i++
		}
		out[key] = val.String()
		if i < len(body) {
			if body[i] != ',' {
				t.Fatalf("expected ',' at %q", body[i:])
			}
			i++
		}
		body = body[i:]
	}
	return out
}

func TestLabelEscapingRoundTrip(t *testing.T) {
	nasty := []string{
		`plain model`,
		`back\slash`,
		`quo"te`,
		"new\nline",
		"all\\three\"of\nthem",
	}
	for _, v := range nasty {
		series := Labeled("aitax_test_ms", "model", v, "tier", "a")
		got := parsePromLabels(t, series)
		if got["model"] != v || got["tier"] != "a" {
			t.Fatalf("round trip of %q gave %q", v, got["model"])
		}
	}
	// The whole exposition stays line-parseable: every line is
	// "name value" or "# TYPE ..." even with hostile label values.
	r := NewRegistry()
	for _, v := range nasty {
		r.Inc(Labeled("aitax_req_total", "model", v))
		r.Observe(Labeled("aitax_lat_ms", "model", v), 1.5)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(strings.NewReader(sb.String()))
	lines := 0
	for sc.Scan() {
		line := sc.Text()
		lines++
		if strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			t.Fatalf("unparseable exposition line %q", line)
		}
		series := line[:sp]
		if strings.ContainsAny(series, "{") {
			parsePromLabels(t, series) // must not fail
		}
		var f float64
		if _, err := fmt.Sscanf(line[sp+1:], "%g", &f); err != nil {
			t.Fatalf("bad value on line %q: %v", line, err)
		}
	}
	if lines < len(nasty)*2 {
		t.Fatalf("suspiciously short exposition (%d lines)", lines)
	}
}

func TestLabeledUnchangedForPlainValues(t *testing.T) {
	// The escaping change must not move a single byte for the label
	// values the goldens already use.
	got := Labeled("aitax_serve_latency_ms", "model", "MobileNet 1.0 v1")
	want := `aitax_serve_latency_ms{model="MobileNet 1.0 v1"}`
	if got != want {
		t.Fatalf("Labeled = %q, want %q", got, want)
	}
}

// TestExactAndStreamingShareBuckets: both registry modes keep one
// bucket histogram, so fed the same observations and the same Merge
// they emit identical _bucket, _sum and _count rows and identical JSON
// count/sum/min/max/buckets; only the quantile rows may differ.
func TestExactAndStreamingShareBuckets(t *testing.T) {
	series := Labeled("aitax_stage_ms", "stage", "pre")
	feed := func(r *Registry, offset float64) {
		for i := 0; i < 400; i++ {
			r.Observe(series, offset+float64(i%97)*0.37)
		}
		// Values on the bucket edges land in the edge's own bucket.
		for _, ub := range DefaultBuckets {
			r.Observe("edge_ms", ub)
		}
		r.Observe("edge_ms", 5000)
		r.Observe("edge_ms", -1)
	}
	exact, stream := NewRegistry(), NewStreamingRegistry()
	feed(exact, 0)
	feed(stream, 0)
	src := NewRegistry()
	feed(src, 700)
	exact.Merge(src)
	stream.Merge(src)
	if exact.Streaming() || !stream.Streaming() {
		t.Fatal("merge changed a registry's mode")
	}

	rows := func(r *Registry) []string {
		var buf strings.Builder
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		var keep []string
		for _, line := range strings.Split(buf.String(), "\n") {
			if strings.Contains(line, "_bucket{") || strings.Contains(line, "_sum") || strings.Contains(line, "_count") {
				keep = append(keep, line)
			}
		}
		return keep
	}
	er, sr := rows(exact), rows(stream)
	if len(er) != 2*(len(DefaultBuckets)+3) {
		t.Fatalf("%d bucket/sum/count rows, want %d:\n%s", len(er), 2*(len(DefaultBuckets)+3), strings.Join(er, "\n"))
	}
	if strings.Join(er, "\n") != strings.Join(sr, "\n") {
		t.Fatalf("exact rows:\n%s\nstreaming rows:\n%s", strings.Join(er, "\n"), strings.Join(sr, "\n"))
	}
	// Cumulative rows: -1 and 0.05 from each of the two feeds, then
	// one more edge value per bound.
	if !slices.Contains(er, `edge_ms_bucket{le="0.05"} 4`) || !slices.Contains(er, `edge_ms_bucket{le="1000"} 30`) {
		t.Fatalf("edge values not counted in their own bucket:\n%s", strings.Join(er, "\n"))
	}

	es, ss := exact.Snapshot().Histograms, stream.Snapshot().Histograms
	for _, name := range []string{series, "edge_ms"} {
		e, s := es[name], ss[name]
		if e.Count != s.Count || e.Sum != s.Sum || e.Min != s.Min || e.Max != s.Max || !maps.Equal(e.Buckets, s.Buckets) {
			t.Fatalf("%s: exact %+v, streaming %+v", name, e, s)
		}
	}
	if e := es["edge_ms"]; e.Min != -1 || e.Max != 5000 {
		t.Fatalf("edge_ms min/max %g/%g, want -1/5000", e.Min, e.Max)
	}
}

// BenchmarkStreamingObserve keeps the streaming hot path honest in the
// bench-smoke alloc gate: observing into a warm series must not
// allocate.
func BenchmarkStreamingObserve(b *testing.B) {
	r := NewStreamingRegistry()
	r.Observe("aitax_bench_ms", 1.0) // warm the series
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Observe("aitax_bench_ms", float64(i%1000))
	}
}

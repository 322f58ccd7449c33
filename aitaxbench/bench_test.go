package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// repoRoot is the repository root as seen from this package's tests.
const repoRoot = ".."

func TestTailQuantileLeavesTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n int
		q float64
	}{
		{3000, 0.99}, {1000, 0.99}, {999, 0.98}, {320, 0.95}, {200, 0.95}, {199, 0.9},
		{40, 0.75}, {20, 0.5}, {19, 0.5}, {10000, 0.999},
	} {
		if q := tailQuantile(c.n); q != c.q {
			t.Errorf("tailQuantile(%d) = %g, want %g", c.n, q, c.q)
		}
	}
	// 1..1000: p99 is 990, and exactly ten samples lie beyond it.
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1)
	}
	q := tailQuantile(len(xs))
	v := quantile(xs, q)
	beyond := 0
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	if v != 990 || beyond != tailBeyond {
		t.Fatalf("p%g of 1..1000 = %g with %d beyond; want 990 with %d", 100*q, v, beyond, tailBeyond)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %g, want 2.5", m)
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	spans := []*span{
		{ID: 1, Name: "pass", Start: ms(0), End: ms(100)},
		// Two overlapping parallel jobs cover [10, 50] once.
		{ID: 2, Parent: 1, Name: "job", Start: ms(10), End: ms(30)},
		{ID: 3, Parent: 1, Name: "job", Start: ms(20), End: ms(50)},
		// A child outliving its parent counts only inside it.
		{ID: 4, Parent: 1, Name: "job", Start: ms(90), End: ms(120)},
		// A grandchild is covered by its parent, not the pass.
		{ID: 5, Parent: 3, Name: "call", Start: ms(25), End: ms(35)},
		{ID: 6, Name: "other", Start: ms(0), End: ms(7)},
	}
	setSelfTimes(spans)
	want := map[int64]time.Duration{1: ms(50), 2: ms(20), 3: ms(20), 4: ms(30), 5: ms(10), 6: ms(7)}
	for _, s := range spans {
		if s.Self != want[s.ID] {
			t.Errorf("span %d self = %v, want %v", s.ID, s.Self, want[s.ID])
		}
	}
}

func TestTracerRecordsParents(t *testing.T) {
	tr := newTracer()
	p := tr.begin("pass", 0)
	c := tr.begin("job", p.id())
	tr.end(c)
	now := time.Now()
	tr.add("shard", p.id(), now.Add(-time.Millisecond), now)
	tr.end(p)
	if kids := tr.children(p.ID); len(kids) != 2 {
		t.Fatalf("pass has %d children, want 2", len(kids))
	}
	if got := tr.named("shard"); len(got) != 1 || got[0] < 0.99 || got[0] > 1.01 {
		t.Fatalf("shard durations %v, want [1ms]", got)
	}
	var nilTracer *tracer
	if s := nilTracer.begin("x", 0); s != nil || s.id() != 0 || nilTracer.add("x", 0, now, now) != 0 {
		t.Fatal("a nil tracer must record nothing")
	}
}

func TestFailedShareCountsRefusalsOnlyBelowOverload(t *testing.T) {
	for _, c := range []struct {
		s    step
		want int
	}{
		// At rates the server sustains, a refusal is a failure.
		{step{rate: 100, attempted: 10, ok: 8, r429: 1, r503: 1}, 2},
		{step{rate: 200, attempted: 10, ok: 10}, 0},
		// Under overload, 429 and 503 are admission control working.
		{step{rate: 800, attempted: 10, ok: 4, r429: 5, r503: 1}, 0},
		// Transport errors, wrong bodies and other statuses always fail.
		{step{rate: 800, attempted: 10, ok: 7, transport: 1, wrong: 1, other: 1}, 3},
		{step{rate: 100, attempted: 10, ok: 9, other: 1}, 1},
	} {
		if got := c.s.failed(); got != c.want {
			t.Errorf("rate %d: failed = %d, want %d", c.s.rate, got, c.want)
		}
	}
}

func TestMaxRateStopsAtFirstUnsustainedStep(t *testing.T) {
	good := func(rate int) *step {
		return &step{rate: rate, attempted: 100, within: 100, lag: []float64{0.1, 0.2}}
	}
	slow := func(rate int) *step {
		s := good(rate)
		s.within = 98 // 98% inside the limit: below 99%
		return s
	}
	late := func(rate int) *step {
		s := good(rate)
		s.lag = []float64{ms(httpLagLimit) + 1}
		return s
	}
	for _, c := range []struct {
		name  string
		steps []*step
		want  float64
	}{
		{"all sustained", []*step{good(100), good(200), good(400), good(800)}, 800},
		{"latency limit", []*step{good(100), good(200), slow(400), good(800)}, 200},
		{"generator late", []*step{good(100), late(200), good(400)}, 100},
		{"none", []*step{slow(100), good(200)}, 0},
	} {
		if got := maxRate(c.steps); got != c.want {
			t.Errorf("%s: maxRate = %g, want %g", c.name, got, c.want)
		}
	}
}

// wrongRoot copies the reference file at rel under a temporary root,
// changing its line-th line.
func wrongRoot(t *testing.T, rel string, line int) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(repoRoot, rel))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(b), "\n")
	lines[line] += " (tampered)"
	root := t.TempDir()
	path := filepath.Join(root, rel)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	return root
}

// checkBothWays runs w's check against the repository's references,
// which must pass, and against a tampered copy, which must fail.
func checkBothWays(t *testing.T, w workload, rel string, line int) {
	t.Helper()
	ctx := context.Background()
	if err := w.setUp(ctx, nil); err != nil {
		t.Fatal(err)
	}
	defer w.close()
	if err := w.check(ctx, repoRoot); err != nil {
		t.Fatalf("check against %s: %v", rel, err)
	}
	err := w.check(ctx, wrongRoot(t, rel, line))
	if err == nil || !strings.Contains(err.Error(), "differs from") {
		t.Fatalf("check against a tampered %s = %v, want a difference", rel, err)
	}
}

func TestPaperCheck(t *testing.T) {
	checkBothWays(t, newPaper(7), "docs/RESULTS.txt", 5)
}

func TestFleetCheck(t *testing.T) {
	cfg, err := fleetConfig(7, 20000)
	if err != nil {
		t.Fatal(err)
	}
	checkBothWays(t, &fleetWL{cfg: cfg}, "cmd/aitax-fleet/testdata/fleet_report.golden", 3)
}

func TestServeSimCheck(t *testing.T) {
	w, err := newServeSim(7)
	if err != nil {
		t.Fatal(err)
	}
	w.arrivals = w.arrivals[:2000]
	checkBothWays(t, w, "cmd/aitax-serve/testdata/brownout_report.golden", 10)
}

// TestServeHTTPCheckRejectsWrongReplies points the serve-http client at
// handlers that answer 200 with the wrong model, an impossible batch or
// an unreadable body, and at one that answers a status no run accepts.
func TestServeHTTPCheckRejectsWrongReplies(t *testing.T) {
	w, err := newServeHTTP(7)
	if err != nil {
		t.Fatal(err)
	}
	reply := func(status int, body string) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			rw.WriteHeader(status)
			fmt.Fprint(rw, body)
		})
	}
	for _, c := range []struct {
		name string
		h    http.Handler
	}{
		{"wrong model", reply(200, `{"model":"EfficientNet-Lite0","batch_size":1}`)},
		{"batch too big", reply(200, `{"model":"MobileNet 1.0 v1","batch_size":5}`)},
		{"batch zero", reply(200, `{"model":"MobileNet 1.0 v1","batch_size":0}`)},
		{"not json", reply(200, `<html>`)},
		{"server error", reply(500, `{"error":"boom"}`)},
	} {
		w.ts, w.client = h2c(c.h)
		if err := w.check(context.Background(), repoRoot); err == nil {
			t.Errorf("%s: check passed", c.name)
		}
		w.close()
	}
	w.ts, w.client = h2c(reply(200, `{"model":"MobileNet 1.0 v1","batch_size":4}`))
	defer w.close()
	if r := w.send(context.Background(), "MobileNet 1.0 v1", time.Now()); r.wrong != "" || r.err != nil || r.proto != 2 {
		t.Fatalf("valid reply rejected: %+v", r)
	}
}

func TestServeHTTPCheckPasses(t *testing.T) {
	w, err := newServeHTTP(7)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := w.setUp(ctx, nil); err != nil {
		t.Fatal(err)
	}
	defer w.close()
	if err := w.check(ctx, repoRoot); err != nil {
		t.Fatal(err)
	}
}

// TestManifestMatchesBenchmarkJSON keeps the committed BENCHMARK.json
// equal to what the metric tables generate.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	var b bytes.Buffer
	if err := writeManifest(&b); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(repoRoot, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, b.Bytes()) {
		t.Fatal("BENCHMARK.json is stale: regenerate it with go run ./aitaxbench -manifest > BENCHMARK.json")
	}
}

func TestStepSizesShareTheRunAboveTheMinimum(t *testing.T) {
	for _, c := range []struct {
		d    time.Duration
		full bool
		want []int
	}{
		// A full run's minimums take 30+5+2.5+5 s.
		{20 * time.Second, true, []int{3000, 1000, 1000, 4000}},
		// 60 s leaves 10 s steps wherever the minimum is shorter.
		{60 * time.Second, true, []int{3000, 2000, 4000, 8000}},
		// A traced slice shares its time evenly.
		{4 * time.Second, false, []int{100, 200, 400, 800}},
		{100 * time.Millisecond, false, []int{20, 20, 20, 20}},
	} {
		got := stepSizes(c.d, c.full)
		for i := range got {
			// Bisection lands within a request of the exact split.
			if d := got[i] - c.want[i]; d < -1 || d > 1 {
				t.Errorf("stepSizes(%v) = %v, want %v", c.d, got, c.want)
				break
			}
		}
	}
}

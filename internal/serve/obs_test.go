package serve

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"aitax/internal/loadgen"
	"aitax/internal/obs"
)

// simObsFixture runs a small overloaded load simulation and builds its
// observability view.
func simObsFixture(t *testing.T, objectives []obs.Objective) (*SimResult, *SimObs, Config) {
	t.Helper()
	cfg := testConfig(t)
	cfg.Models = DefaultModels()[:1]
	cfg.QueueDepth = 2
	cfg.Workers = 1
	spec := loadgen.Spec{
		Seed:   7,
		Phases: []loadgen.Phase{{QPS: 200, Duration: 300 * time.Millisecond}},
		Mix:    []loadgen.Share{{Model: cfg.Models[0].Name, Weight: 1}},
	}
	arrivals, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	table, err := BuildCostTable(context.Background(), cfg, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(cfg, table, arrivals, false)
	if err != nil {
		t.Fatal(err)
	}
	return res, BuildSimObs(cfg, res, 0, objectives), cfg
}

func TestBuildSimObsAccountsEveryRequest(t *testing.T) {
	objs := []obs.Objective{{Latency: 5 * time.Millisecond, Target: 0.95}}
	res, so, _ := simObsFixture(t, objs)

	var offered, served, rejected, good, bad float64
	for _, row := range so.Rows {
		offered += row.Counters[obs.OfferedSeries(obs.AllModels)]
		served += row.Counters[obs.ServedSeries(obs.AllModels)]
		rejected += row.Counters[obs.RejectedSeries(obs.AllModels)]
		good += row.Counters[obs.GoodSeries(objs[0])]
		bad += row.Counters[obs.BadSeries(objs[0])]
	}
	var wantServed, wantRejected float64
	for _, o := range res.Outcomes {
		if o.Rejected {
			wantRejected++
		} else {
			wantServed++
		}
	}
	if offered != wantServed+wantRejected || served != wantServed || rejected != wantRejected {
		t.Fatalf("rows account offered %g served %g rejected %g; want %g/%g/%g",
			offered, served, rejected, wantServed+wantRejected, wantServed, wantRejected)
	}
	// Every offered request is scored against the aggregate objective,
	// exactly once.
	if good+bad != offered {
		t.Fatalf("slo scored %g of %g offered", good+bad, offered)
	}
	if so.Monitor == nil {
		t.Fatal("objectives given but no monitor built")
	}
	sum := so.Monitor.Summaries()[0]
	if sum.Good != good || sum.Bad != bad {
		t.Fatalf("monitor totals %g/%g diverge from rows %g/%g", sum.Good, sum.Bad, good, bad)
	}
}

func TestBuildSimObsStageAnatomyMatchesOutcomes(t *testing.T) {
	res, so, _ := simObsFixture(t, nil)
	var wantPre, wantPost time.Duration
	for _, o := range res.Outcomes {
		if !o.Rejected {
			wantPre += o.Pre
			wantPost += o.Post
		}
	}
	var gotPre, gotPost float64
	for _, row := range so.Rows {
		gotPre += row.Counters[obs.StageSeries("pre")]
		gotPost += row.Counters[obs.StageSeries("post")]
	}
	if wantPre == 0 {
		t.Fatal("outcomes carry no pre-processing time; BatchCost.Pre not plumbed")
	}
	tol := 1e-6
	if diff := gotPre - ms(wantPre); diff > tol || diff < -tol {
		t.Fatalf("pre stage: rows %g ms, outcomes %g ms", gotPre, ms(wantPre))
	}
	if diff := gotPost - ms(wantPost); diff > tol || diff < -tol {
		t.Fatalf("post stage: rows %g ms, outcomes %g ms", gotPost, ms(wantPost))
	}
}

func TestSimObsSnapshotDeterministic(t *testing.T) {
	objs := []obs.Objective{{Latency: 5 * time.Millisecond, Target: 0.95}}
	_, so1, _ := simObsFixture(t, objs)
	_, so2, _ := simObsFixture(t, objs)
	if so1.Snapshot() != so2.Snapshot() {
		t.Fatal("snapshot not deterministic across identical runs")
	}
	if !strings.Contains(so1.Snapshot(), "tax anatomy ms/req:") {
		t.Fatalf("snapshot missing anatomy line:\n%s", so1.Snapshot())
	}
}

func TestHTTPMetricsContentTypeAndRuntime(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("/metrics Content-Type = %q", got)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"aitax_runtime_heap_alloc_bytes", "aitax_runtime_goroutines"} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics missing %s", want)
		}
	}
}

func TestHTTPRetryAfterDerivedFromWindow(t *testing.T) {
	if got := retryAfterSeconds(0); got != "1" {
		t.Fatalf("zero window Retry-After = %s, want 1", got)
	}
	if got := retryAfterSeconds(2 * time.Millisecond); got != "1" {
		t.Fatalf("2ms window Retry-After = %s, want 1 (floor)", got)
	}
	if got := retryAfterSeconds(2500 * time.Millisecond); got != "3" {
		t.Fatalf("2.5s window Retry-After = %s, want 3 (ceil)", got)
	}
	srv, _ := newTestServer(t, func(c *Config) { c.BatchWindow = 3 * time.Second })
	if srv.retryAfter != "3" {
		t.Fatalf("server Retry-After = %s, want 3", srv.retryAfter)
	}
}

func TestHTTPSLOEndpoint(t *testing.T) {
	// Without objectives: 404.
	_, ts := newTestServer(t, nil)
	resp, err := http.Get(ts.URL + "/v1/slo")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/v1/slo without SLOs: status %d, want 404", resp.StatusCode)
	}

	_, ts2 := newTestServer(t, func(c *Config) {
		c.SLO = []obs.Objective{{Latency: 10 * time.Second, Target: 0.5}}
	})
	if _, out := postJSON(t, ts2.URL+"/v1/classify", `{}`); out["error"] != nil {
		t.Fatalf("classify failed: %v", out["error"])
	}
	resp2, err := http.Get(ts2.URL + "/v1/slo")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var got []map[string]any
	if err := json.NewDecoder(resp2.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0]["objective"] != "all models" {
		t.Fatalf("/v1/slo = %v", got)
	}
}

func TestHTTPPprofMounted(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, err := http.Get(ts.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline status %d", resp.StatusCode)
	}
}

func TestHTTPWatchRendersLiveTraffic(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	if _, out := postJSON(t, ts.URL+"/v1/classify", `{}`); out["error"] != nil {
		t.Fatalf("classify failed: %v", out["error"])
	}
	watch := srv.Watch()
	for _, want := range []string{"MobileNet 1.0 v1", "tax anatomy ms/req:"} {
		if !strings.Contains(watch, want) {
			t.Fatalf("watch output missing %q:\n%s", want, watch)
		}
	}
}

// The live server splits a request's queueing into batch wait (enqueue
// to flush) and dispatch wait (flush to executor pickup), and tracks
// the all-model queue depth — the same series the simulator's replay
// writes, so the -watch dashboard's columns fill in either harness.
func TestHTTPRecordsBatchAndDispatchWait(t *testing.T) {
	srv, ts := newTestServer(t, func(c *Config) { c.BatchWindow = 20 * time.Millisecond })
	resp, out := postJSON(t, ts.URL+"/v1/classify", `{}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
	const model = "MobileNet 1.0 v1"
	bw := srv.rec.MergedHist(obs.BatchWaitSeries(model), 64)
	dw := srv.rec.MergedHist(obs.DispatchWaitSeries(model), 64)
	depth := srv.rec.MergedHist(obs.DepthSeries(obs.AllModels), 64)
	if bw.Count() != 1 || dw.Count() != 1 || depth.Count() != 1 {
		t.Fatalf("series counts: batch wait %d, dispatch wait %d, depth{all} %d; want 1 each",
			bw.Count(), dw.Count(), depth.Count())
	}
	if bw.Sum() < 15 {
		t.Fatalf("batch wait %.3fms, want about the 20ms window", bw.Sum())
	}
	if queue := out["queue_ms"].(float64); math.Abs(bw.Sum()+dw.Sum()-queue) > 1e-6 {
		t.Fatalf("batch wait %.6f + dispatch wait %.6f != queue_ms %.6f", bw.Sum(), dw.Sum(), queue)
	}
}

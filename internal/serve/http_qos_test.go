package serve

import (
	"context"
	"net/http"
	"strings"
	"testing"
	"time"

	"aitax/internal/models"
	"aitax/internal/obs"
	"aitax/internal/qos"
	"aitax/internal/tflite"
)

// qosServerConfig mirrors qosConfig for the wall-clock frontend: the
// EfficientNet -> MobileNet downshift pair, an SLO to feed the burn
// signal, and a ladder ticking so slowly the background loop never
// interferes with a test that sets the level by hand.
func qosServerConfig(c *Config, t *testing.T) {
	t.Helper()
	eff, err := models.ByName("EfficientNet-Lite0")
	if err != nil {
		t.Fatal(err)
	}
	c.Models = append(c.Models, eff)
	c.SLO = []obs.Objective{{Model: "EfficientNet-Lite0", Latency: 300 * time.Millisecond, Target: 0.95}}
	c.QoS = &QoSPolicy{
		Ladder:        qos.Ladder{Tick: time.Hour},
		Downshift:     map[string]string{"EfficientNet-Lite0": "MobileNet 1.0 v1"},
		SteerDelegate: tflite.DelegateGPU,
	}
}

// forceLevel climbs the server's controller to the requested rung by
// feeding it saturated-queue ticks under the server mutex.
func forceLevel(t *testing.T, srv *Server, level int) {
	t.Helper()
	srv.mu.Lock()
	defer srv.mu.Unlock()
	for i := 0; i < level; i++ {
		srv.qs.ctl.TickAt(time.Duration(i)*time.Millisecond, qos.Signals{QueueFrac: 1})
	}
	if got := srv.qs.ctl.Level(); got != level {
		t.Fatalf("forced level %d, got %d", level, got)
	}
}

func TestHTTPBadClassIs400(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, out := postJSON(t, ts.URL+"/v1/classify", `{"class":"bogus"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %v", resp.StatusCode, out)
	}
	if !strings.Contains(out["error"].(string), "bogus") {
		t.Fatalf("error %q does not name the bad class", out["error"])
	}
}

func TestHTTPShedsBestEffortUnderBrownout(t *testing.T) {
	srv, ts := newTestServer(t, func(c *Config) {
		c.Models = DefaultModels()[:1]
		qosServerConfig(c, t)
	})
	forceLevel(t, srv, 1)
	resp, out := postJSON(t, ts.URL+"/v1/classify", `{"class":"best-effort"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %v", resp.StatusCode, out)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed 503 without Retry-After")
	}
	if !strings.Contains(out["error"].(string), "shedding") {
		t.Fatalf("shed error %q", out["error"])
	}
	if got := srv.Metrics().Counter(`aitax_qos_shed_total{class="best-effort"}`); got != 1 {
		t.Fatalf("shed counter %v, want 1", got)
	}
	// Protected classes still get served at level 1.
	resp, out = postJSON(t, ts.URL+"/v1/classify", `{"class":"interactive"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("interactive status %d under L1: %v", resp.StatusCode, out)
	}
}

func TestHTTPDownshiftAndSteerAtTopRung(t *testing.T) {
	srv, ts := newTestServer(t, func(c *Config) {
		c.Models = DefaultModels()[:1]
		qosServerConfig(c, t)
	})
	forceLevel(t, srv, qos.NumRungs)
	resp, out := postJSON(t, ts.URL+"/v1/classify", `{"model":"EfficientNet-Lite0"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
	if out["model"] != "EfficientNet-Lite0" {
		t.Fatalf("response model %v, want the requested name", out["model"])
	}
	if out["served_by"] != "MobileNet 1.0 v1" {
		t.Fatalf("served_by %v, want the downshift target", out["served_by"])
	}
	if got := srv.Metrics().Counter(`aitax_qos_downshift_total{model="EfficientNet-Lite0"}`); got != 1 {
		t.Fatalf("downshift counter %v, want 1", got)
	}
	if got := srv.Metrics().Counter("aitax_qos_steered_batches_total"); got < 1 {
		t.Fatalf("steered counter %v, want >= 1", got)
	}
	srv.mu.Lock()
	deg := srv.qs.deg
	srv.mu.Unlock()
	if deg.Downshifted != 1 || deg.SteeredBatches < 1 {
		t.Fatalf("degradation record %+v", deg)
	}
}

func TestHTTPQoSLoopTicksOnWallClock(t *testing.T) {
	srv, _ := newTestServer(t, func(c *Config) {
		c.Models = DefaultModels()[:1]
		qosServerConfig(c, t)
		c.QoS.Ladder.Tick = 2 * time.Millisecond
		c.QoS.Observe = true
	})
	deadline := time.Now().Add(5 * time.Second)
	for {
		srv.mu.Lock()
		ticks := srv.qs.deg.Ticks
		srv.mu.Unlock()
		if ticks >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("qos loop never ticked")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestHTTPShutdownDrainsOpenWindows(t *testing.T) {
	srv, ts := newTestServer(t, func(c *Config) {
		c.BatchWindow = time.Minute // hold the batch open until drain
		c.MaxBatch = 8
	})
	first := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/classify", "application/json", strings.NewReader(`{}`))
		if err != nil {
			first <- -1
			return
		}
		resp.Body.Close()
		first <- resp.StatusCode
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		srv.mu.Lock()
		queued := srv.queues["MobileNet 1.0 v1"].queued
		srv.mu.Unlock()
		if queued == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("request never queued")
		}
		time.Sleep(time.Millisecond)
	}
	// Shutdown flushes the open window: the queued request is served,
	// not dropped, and the drain completes within the deadline.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain failed: %v", err)
	}
	if code := <-first; code != http.StatusOK {
		t.Fatalf("held request finished with %d, want 200", code)
	}
	// Admission during/after drain answers 503 with a Retry-After.
	resp, out := postJSON(t, ts.URL+"/v1/classify", `{}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain status %d, want 503: %v", resp.StatusCode, out)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("drain 503 without Retry-After")
	}
}

func TestHTTPCancelledRequestLeavesQueue(t *testing.T) {
	srv, ts := newTestServer(t, func(c *Config) {
		c.BatchWindow = time.Minute // keep the request queued
		c.MaxBatch = 8
	})
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/classify", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	q := srv.queues["MobileNet 1.0 v1"]
	for {
		srv.mu.Lock()
		queued := q.queued
		srv.mu.Unlock()
		if queued == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("request never queued")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("cancelled request returned without error")
	}
	// The abandoned request is pulled out before dispatch: queue slot
	// freed, window timer stopped, and it counts as cancelled.
	for {
		srv.mu.Lock()
		queued, pending, timer := q.queued, len(q.pending), q.stopWindow
		srv.mu.Unlock()
		if queued == 0 && pending == 0 && timer == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cancelled request not removed: queued %d pending %d", queued, pending)
		}
		time.Sleep(time.Millisecond)
	}
	for {
		if srv.Metrics().Counter(`aitax_serve_cancelled_total{model="MobileNet 1.0 v1"}`) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("cancelled counter never incremented")
		}
		time.Sleep(time.Millisecond)
	}
}

// A shed request burns the SLO budget of every objective covering its
// model, in the live server exactly as in the simulator's replay.
func TestHTTPShedBurnsSLOBudget(t *testing.T) {
	obj := obs.Objective{Model: "MobileNet 1.0 v1", Latency: 300 * time.Millisecond, Target: 0.95}
	srv, ts := newTestServer(t, func(c *Config) {
		c.Models = DefaultModels()[:1]
		qosServerConfig(c, t)
		c.SLO = []obs.Objective{obj}
	})
	forceLevel(t, srv, 1)
	resp, out := postJSON(t, ts.URL+"/v1/classify", `{"class":"best-effort"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %v", resp.StatusCode, out)
	}
	shed := srv.rec.SumCounter(obs.ShedSeries("MobileNet 1.0 v1"), 64)
	bad := srv.rec.SumCounter(obs.BadSeries(obj), 64)
	if shed != 1 || bad != 1 {
		t.Fatalf("recorder after one shed request: shed=%v bad=%v, want 1 and 1", shed, bad)
	}
}

// The thermal model's utilization input is the hot delegate's busy-time
// integral, so a batch that starts and ends between two ticks still
// heats the die.
func TestHTTPShortBatchMovesBusyIntegral(t *testing.T) {
	srv, ts := newTestServer(t, func(c *Config) {
		c.Models = DefaultModels()[:1]
		qosServerConfig(c, t) // hour-long tick: no decision runs
	})
	if resp, out := postJSON(t, ts.URL+"/v1/classify", `{}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
	srv.mu.Lock()
	busy, hot := srv.qs.busyInt, srv.qs.hot
	srv.mu.Unlock()
	if busy <= 0 || hot != 0 {
		t.Fatalf("after one batch: busy integral %v, hot batches %d; want > 0 and 0", busy, hot)
	}
}

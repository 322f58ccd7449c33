package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"aitax"
	"aitax/internal/app"
	"aitax/internal/serve"
	"aitax/internal/sim"
	"aitax/internal/telemetry"
	"aitax/internal/tensor"
	"aitax/internal/tflite"
)

// httpSteps is the offered-load ladder: each rate in req/s, and the
// fewest requests an end-to-end run sends at it. 1000 requests give a
// p99 ten samples beyond it; the 100 req/s step, whose latencies are
// end-to-end metrics, sends 3000 for thirty. 800 req/s is two to three
// times what the server sustains on a 2-CPU host, so the top step
// measures goodput under admission control; 4000 requests make it a
// 5 s window.
var httpSteps = []struct{ rate, min int }{{100, 3000}, {200, 1000}, {400, 1000}, {800, 4000}}

const (
	// httpServerSeed is the serving config's executor seed, aitax-serve's
	// default. The config is fixed like the rest of the deployment; the
	// workload seed generates the traffic.
	httpServerSeed = 42
	// httpModels are the classification models the server loads; each
	// request names one, drawn from the seeded schedule.
	httpModels = "MobileNet 1.0 v1,EfficientNet-Lite0"
	// httpLimit and httpGoodShare define a rate the server sustains:
	// this share of its requests get a 200 within this limit ...
	httpLimit     = 100 * time.Millisecond
	httpGoodShare = 0.99
	// ... while the generator's p99 send lag stays within httpLagLimit.
	httpLagLimit = 10 * time.Millisecond
)

// serveHTTPWL is the serve-http workload: serve.NewServer behind a
// loopback listener, driven by an open-loop Poisson schedule over one
// HTTP/2 cleartext connection.
type serveHTTPWL struct {
	seed   uint64
	cfg    serve.Config
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
	// steps is the last ladder measured.
	steps []*step
}

func newServeHTTP(seed uint64) (*serveHTTPWL, error) {
	p, err := aitax.PlatformByName("Google Pixel 3")
	if err != nil {
		return nil, err
	}
	loaded, err := loadModels(strings.Split(httpModels, ",")...)
	if err != nil {
		return nil, err
	}
	// aitax-serve's defaults: 2 workers, 2 ms window, batches of up to
	// 4, queue depth 16, 200 µs dispatch.
	cfg := serve.Config{
		Platform: p, DType: tensor.Float32, Delegate: tflite.DelegateNNAPI,
		Models: loaded, Entry: app.StagePre, Workers: 2,
		BatchWindow: 2 * time.Millisecond, MaxBatch: 4, QueueDepth: 16,
		DispatchCost: 200 * time.Microsecond, Seed: httpServerSeed,
	}.Defaults()
	return &serveHTTPWL{seed: seed, cfg: cfg}, cfg.Validate()
}

// setUp starts the server, compiles its plans and opens the listener.
func (w *serveHTTPWL) setUp(ctx context.Context, tr *tracer) error {
	s := tr.begin("serve.http_setup", 0)
	defer tr.end(s)
	var err error
	if w.srv, err = serve.NewServer(w.cfg); err != nil {
		return err
	}
	if _, err := w.srv.Prewarm(ctx); err != nil {
		return err
	}
	w.ts, w.client = h2c(w.srv.Handler())
	return nil
}

// check sends one request per loaded model, one at a time; each must
// come back 200 over HTTP/2 with a valid body.
func (w *serveHTTPWL) check(ctx context.Context, root string) error {
	for _, m := range w.cfg.Models {
		r := w.send(ctx, m.Name, time.Now())
		if r.err != nil {
			return r.err
		}
		if r.status != http.StatusOK || r.wrong != "" {
			return fmt.Errorf("%s: status %d %s", m.Name, r.status, r.wrong)
		}
		if r.proto != 2 {
			return fmt.Errorf("%s: served over HTTP/%d, want HTTP/2", m.Name, r.proto)
		}
	}
	return nil
}

// reply is one request's fate.
type reply struct {
	status  int
	proto   int
	err     error
	wrong   string // why a 200 body failed the check
	lat     time.Duration
	queueMS float64
}

// send posts one classify request and reads the whole response. Its
// latency counts from due, when the schedule said to send it.
func (w *serveHTTPWL) send(ctx context.Context, model string, due time.Time) reply {
	body := fmt.Sprintf(`{"model":%q}`, model)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.ts.URL+"/v1/classify", strings.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return reply{err: err, lat: time.Since(due)}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	r := reply{status: resp.StatusCode, proto: resp.ProtoMajor, err: err, lat: time.Since(due)}
	if err == nil && r.status == http.StatusOK {
		var got struct {
			Model   string  `json:"model"`
			Batch   int     `json:"batch_size"`
			QueueMS float64 `json:"queue_ms"`
		}
		switch err := json.NewDecoder(bytes.NewReader(b)).Decode(&got); {
		case err != nil:
			r.wrong = "undecodable body: " + err.Error()
		case got.Model != model:
			r.wrong = fmt.Sprintf("served %q for %q", got.Model, model)
		case got.Batch < 1 || got.Batch > w.cfg.MaxBatch:
			r.wrong = fmt.Sprintf("batch size %d outside 1..%d", got.Batch, w.cfg.MaxBatch)
		}
		r.queueMS = got.QueueMS
	}
	return r
}

// arrival is one scheduled request.
type arrival struct {
	at    time.Duration
	model string
}

// schedule draws n Poisson arrivals at rate req/s from the seed.
func schedule(seed uint64, rate, n int, names []string) []arrival {
	rng := sim.NewRNG(seed*1000003 + uint64(rate))
	out := make([]arrival, n)
	var at float64
	for i := range out {
		at += rng.Exp(1 / float64(rate))
		out[i] = arrival{at: time.Duration(at * float64(time.Second)), model: names[rng.Intn(len(names))]}
	}
	return out
}

// step is one rate of the ladder, with its accounting.
type step struct {
	rate int
	// Counts by outcome. refused is 429 and 503.
	attempted, ok, r429, r503, other, transport, wrong int
	// within counts 200s inside httpLimit.
	within int
	lat    []float64 // every request's latency, ms
	lag    []float64 // generator send lag, ms
	queue  []float64 // 200s' queue_ms
	wall   time.Duration
	// Server-side batch counters over the step.
	batches, batchSizeSum float64
}

// failed counts the step's failed requests: transport errors, wrong
// bodies, unexpected statuses, and at rates the server should sustain
// (below 400 req/s) any refusal. Refusals above that are admission
// control working, not failures.
func (s *step) failed() int {
	f := s.transport + s.wrong + s.other
	if s.rate < 400 {
		f += s.r429 + s.r503
	}
	return f
}

// sustained reports whether the step met the latency limit for enough
// requests while the generator kept its schedule.
func (s *step) sustained() bool {
	return s.attempted > 0 &&
		float64(s.within) >= httpGoodShare*float64(s.attempted) &&
		quantile(s.lag, 0.99) <= ms(httpLagLimit)
}

// maxRate is the highest rate of the ladder below the first step that
// was not sustained, or 0.
func maxRate(steps []*step) float64 {
	best := 0
	for _, s := range steps {
		if !s.sustained() {
			break
		}
		best = s.rate
	}
	return float64(best)
}

// runStep sends the step's schedule open-loop: a request goes out when
// it is due whether or not earlier ones have returned.
func (w *serveHTTPWL) runStep(ctx context.Context, rate int, sched []arrival, tr *tracer) *step {
	st := &step{rate: rate, attempted: len(sched)}
	b0, s0 := w.batchCounters()
	stepSpan := tr.begin(fmt.Sprintf("http.step.r%d", rate), 0)
	replies := make([]reply, len(sched))
	lags := make([]float64, len(sched))
	var wg sync.WaitGroup
	start := time.Now()
	for i, a := range sched {
		due := start.Add(a.at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		lags[i] = ms(time.Since(due))
		wg.Add(1)
		go func(i int, model string, due time.Time) {
			defer wg.Done()
			sent := time.Now()
			replies[i] = w.send(ctx, model, due)
			tr.add("http.request", stepSpan.id(), sent, time.Now())
		}(i, a.model, due)
	}
	wg.Wait()
	st.wall = time.Since(start)
	tr.end(stepSpan)
	b1, s1 := w.batchCounters()
	st.batches, st.batchSizeSum = b1-b0, s1-s0
	st.lag = lags
	for _, r := range replies {
		st.lat = append(st.lat, ms(r.lat))
		switch {
		case r.err != nil:
			st.transport++
		case r.status == http.StatusOK && r.wrong != "":
			st.wrong++
		case r.status == http.StatusOK:
			st.ok++
			st.queue = append(st.queue, r.queueMS)
			if r.lat <= httpLimit {
				st.within++
			}
		case r.status == http.StatusTooManyRequests:
			st.r429++
		case r.status == http.StatusServiceUnavailable:
			st.r503++
		default:
			st.other++
		}
	}
	return st
}

// batchCounters sums the server's batch count and batch-size total
// over the loaded models: the numbers /metrics exports.
func (w *serveHTTPWL) batchCounters() (batches, sizeSum float64) {
	reg := w.srv.Metrics()
	for _, m := range w.cfg.Models {
		batches += reg.Counter(telemetry.Labeled("aitax_serve_batches_total", "model", m.Name))
		sizeSum += reg.Sum(telemetry.Labeled("aitax_serve_batch_size", "model", m.Name))
	}
	return batches, sizeSum
}

func (w *serveHTTPWL) minOps() int { return httpSteps[0].min }

// stepSizes shares d among the ladder's steps: every step lasts the
// same time T, except that a full run's step lasts long enough to send
// its minimum. T is chosen so the steps add up to d where the minimums
// leave room; a slice of a traced run sends at least 20 per step.
func stepSizes(d time.Duration, full bool) []int {
	least := func(i int) int {
		if full {
			return httpSteps[i].min
		}
		return 20
	}
	total := func(t float64) (sum float64) {
		for i, s := range httpSteps {
			sum += max(t, float64(least(i))/float64(s.rate))
		}
		return sum
	}
	lo, hi := 0.0, d.Seconds()
	for i := 0; i < 50; i++ {
		if mid := (lo + hi) / 2; total(mid) > d.Seconds() {
			hi = mid
		} else {
			lo = mid
		}
	}
	sizes := make([]int, len(httpSteps))
	for i, s := range httpSteps {
		sizes[i] = max(int(lo*float64(s.rate)), least(i))
	}
	return sizes
}

// measure runs the rate ladder once, with steps sized by stepSizes.
// Operations are requests; the end-to-end latencies are the 100 req/s
// step's and the throughput is the 800 req/s step's goodput.
func (w *serveHTTPWL) measure(ctx context.Context, d time.Duration, full bool, tr *tracer) (*measurement, error) {
	names := make([]string, len(w.cfg.Models))
	for i, m := range w.cfg.Models {
		names[i] = m.Name
	}
	m := &measurement{extra: map[string]float64{}}
	var steps []*step
	for i, n := range stepSizes(d, full) {
		rate := httpSteps[i].rate
		st := w.runStep(ctx, rate, schedule(w.seed, rate, n, names), tr)
		m.endPass()
		steps = append(steps, st)
		m.attempted += st.attempted
		m.failed += st.failed()
		m.wrong += st.wrong + st.other
		q := tailQuantile(st.attempted)
		m.extra[fmt.Sprintf("http_p50_ms.r%d", rate)] = quantile(st.lat, 0.5)
		m.extra[fmt.Sprintf("http_p%g_ms.r%d", 100*q, rate)] = quantile(st.lat, q)
		m.extra[fmt.Sprintf("http_goodput_rps.r%d", rate)] = float64(st.ok) / st.wall.Seconds()
		m.extra[fmt.Sprintf("http.gen_lag_ms_max.r%d", rate)] = quantile(st.lag, 1)
		for k, v := range map[string]int{"attempted": st.attempted, "200": st.ok, "429": st.r429,
			"503": st.r503, "other": st.other, "transport_error": st.transport} {
			m.extra[fmt.Sprintf("http.%s.r%d", k, rate)] = float64(v)
		}
	}
	m.extra["http_max_rps"] = maxRate(steps)
	base, top := steps[0], steps[len(steps)-1]
	m.lat = base.lat
	m.throughput = float64(top.ok) / top.wall.Seconds()
	w.steps = steps
	return m, nil
}

func (w *serveHTTPWL) layers(tr *tracer, out map[string]float64) {
	at := map[int]*step{}
	var lagMax float64
	for _, s := range w.steps {
		at[s.rate] = s
		lagMax = max(lagMax, quantile(s.lag, 1))
	}
	r100, r200, r800 := at[100], at[200], at[800]
	out["http.gen_lag_ms_max"] = lagMax
	out["http.queue_ms_p50.r100"] = median(r100.queue)
	out["http.queue_ms_p50.r800"] = median(r800.queue)
	out["serve.batch_size_mean.r100"] = r100.batchSizeSum / r100.batches
	out["serve.batch_size_mean.r800"] = r800.batchSizeSum / r800.batches
	out["serve.batches_per_s.r800"] = r800.batches / r800.wall.Seconds()
	out["http.reject_share.r800"] = float64(r800.r429+r800.r503) / float64(r800.attempted)
	out["http.p99_ms.r200"] = quantile(r200.lat, 0.99)
	out["http.goodput_rps.r800"] = float64(r800.ok) / r800.wall.Seconds()
	out["http.max_rps"] = maxRate(w.steps)
}

func (w *serveHTTPWL) close() {
	if w.ts != nil {
		w.client.CloseIdleConnections()
		w.ts.Close()
	}
	if w.srv != nil {
		w.srv.Close()
	}
}

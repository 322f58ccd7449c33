package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"

	"aitax/internal/lab"
	"aitax/internal/models"
	"aitax/internal/obs"
	"aitax/internal/qos"
	"aitax/internal/sim"
	"aitax/internal/telemetry"
)

// endpointTask maps each inference endpoint to the task it serves.
var endpointTask = []struct {
	path string
	task models.Task
}{
	{"/v1/classify", models.Classification},
	{"/v1/detect", models.ObjectDetection},
	{"/v1/segment", models.Segmentation},
}

// Server is the wall-clock HTTP frontend: the serving policy the
// virtual-time simulator runs, driven by real requests on real time.
// Batches execute as lab jobs on simulated executor stacks (compiled
// plans shared process-wide via plan.Shared), bounded by
// Config.Workers.
type Server struct {
	// policy's queues and brownout state are guarded by mu.
	policy[*httpReq]
	mux *http.ServeMux
	lab *lab.Lab
	sem chan struct{}
	// retryAfter is the 429 Retry-After value in whole seconds, derived
	// from the batch window (a client retrying sooner than the window
	// cannot be admitted any faster).
	retryAfter string
	// start anchors the harness clock: the policy's and the streaming
	// recorder's time axis.
	start time.Time
	rec   *obs.Recorder
	mon   *obs.Monitor

	mu       sync.Mutex
	wg       sync.WaitGroup
	qosStop  chan struct{}
	qosDone  chan struct{}
	stopOnce sync.Once
}

type httpReq struct {
	// arrival and flushed are the request's admission and batch-flush
	// times on the harness clock.
	arrival time.Duration
	flushed time.Duration
	ch      chan httpDone
}

type httpDone struct {
	started time.Duration
	cost    BatchCost
	err     error
}

// NewServer validates the config and builds the frontend. The cost of
// each batch is measured live when the batch executes, so no warmup
// pass is needed; the first batch per (model, size) pays the plan
// compilation that later ones reuse from the shared cache.
func NewServer(cfg Config) (*Server, error) {
	cfg = cfg.Defaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// A long-running server takes unbounded traffic: the streaming
	// registry keeps /metrics memory flat (bucketed quantiles instead
	// of retained samples).
	pol, err := newPolicy[*httpReq](cfg, telemetry.NewStreamingRegistry())
	if err != nil {
		return nil, err
	}
	s := &Server{
		policy:     pol,
		mux:        http.NewServeMux(),
		lab:        &lab.Lab{Parallelism: 1},
		sem:        make(chan struct{}, cfg.Workers),
		retryAfter: retryAfterSeconds(cfg.BatchWindow),
		start:      time.Now(),
	}
	s.rec = obs.NewRecorder(obs.RecorderConfig{
		Window: cfg.ObsWindow,
		OnClose: func(row obs.Row) {
			if s.mon != nil {
				s.mon.OnRow(row)
			}
		},
	})
	if len(cfg.SLO) > 0 {
		s.mon = obs.NewMonitor(cfg.SLO, s.rec.Window())
	}
	if s.qs != nil {
		s.qosStop = make(chan struct{})
		s.qosDone = make(chan struct{})
		go s.qosLoop()
	}
	for _, ep := range endpointTask {
		ep := ep
		s.mux.HandleFunc(ep.path, func(w http.ResponseWriter, r *http.Request) {
			s.handleInfer(w, r, ep.task)
		})
	}
	s.mux.HandleFunc("/v1/models", s.handleModels)
	s.mux.HandleFunc("/v1/slo", s.handleSLO)
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		// Prometheus text exposition format 0.0.4; runtime health and
		// SLO state are refreshed per scrape.
		obs.CollectRuntime(s.metrics)
		if s.mon != nil {
			s.mon.Export(s.metrics)
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := s.metrics.WritePrometheus(w); err != nil {
			// Headers are gone; all we can do is log the broken scrape.
			http.Error(w, "metrics write failed: "+err.Error(), http.StatusInternalServerError)
		}
	})
	// Live profiling surfaces, mounted on the same mux so the serving
	// frontend is introspectable without a second listener.
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s, nil
}

// retryAfterSeconds renders the batch window as a whole-second
// Retry-After value (minimum 1s, the header's resolution floor).
func retryAfterSeconds(window time.Duration) string {
	secs := int(math.Ceil(window.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// now is the server's position on the recorder's time axis.
func (s *Server) now() time.Duration { return time.Since(s.start) }

// Watch renders the live terminal dashboard from the server's streaming
// recorder (the -watch flag's refresh body).
func (s *Server) Watch() string {
	models := make([]string, 0, len(s.cfg.Models))
	for _, m := range s.cfg.Models {
		models = append(models, m.Name)
	}
	d := &obs.Dashboard{Rec: s.rec, Mon: s.mon, Models: models}
	return d.Render(s.now().Round(time.Millisecond))
}

// sloResponse is the /v1/slo JSON shape.
type sloResponse struct {
	Objective  string  `json:"objective"`
	Contract   string  `json:"contract"`
	Good       float64 `json:"good"`
	Bad        float64 `json:"bad"`
	Compliance float64 `json:"compliance"`
	BudgetUsed float64 `json:"budget_used"`
	BurnShort  float64 `json:"burn_short"`
	BurnLong   float64 `json:"burn_long"`
	Pages      int     `json:"pages"`
	Warns      int     `json:"warns"`
	Pass       bool    `json:"pass"`
}

// handleSLO reports each objective's compliance and live burn rate.
func (s *Server) handleSLO(w http.ResponseWriter, r *http.Request) {
	if s.mon == nil {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "no SLOs configured (start with -slo)"})
		return
	}
	burns := s.mon.CurrentBurn()
	out := make([]sloResponse, 0, len(s.cfg.SLO))
	for _, sum := range s.mon.Summaries() {
		b := burns[sum.Objective.Name()]
		out = append(out, sloResponse{
			Objective:  sum.Objective.Name(),
			Contract:   fmt.Sprintf("%g%% < %s", sum.Objective.Target*100, sum.Objective.Latency),
			Good:       sum.Good,
			Bad:        sum.Bad,
			Compliance: sum.Compliance,
			BudgetUsed: sum.BudgetUsed,
			BurnShort:  b[0],
			BurnLong:   b[1],
			Pages:      sum.Pages,
			Warns:      sum.Warns,
			Pass:       sum.Pass,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// Handler returns the frontend's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics exposes the server's registry (also served at /metrics).
func (s *Server) Metrics() *telemetry.Registry { return s.metrics }

// qosLoop drives the brownout controller on the wall clock: one
// policy tick per ladder tick, under the server mutex.
func (s *Server) qosLoop() {
	defer close(s.qosDone)
	t := time.NewTicker(s.qs.ctl.Ladder().Tick)
	defer t.Stop()
	for {
		select {
		case <-s.qosStop:
			return
		case <-t.C:
			s.mu.Lock()
			now := s.now()
			tk := s.tick(now)
			s.mu.Unlock()
			if tk.Changed {
				s.rec.Add(now, telemetry.Labeled("qos_transitions", "to", strconv.Itoa(tk.Level)), 1)
			}
		}
	}
}

// Close stops admitting requests and waits for in-flight batches.
func (s *Server) Close() { s.Shutdown(context.Background()) }

// Shutdown drains the server gracefully: admission immediately starts
// answering 503 with a Retry-After, every open micro-batch window is
// flushed so queued requests still get served, and in-flight batches
// have until ctx's deadline to complete. It returns ctx.Err() if the
// drain deadline expires first (batches then finish in the background).
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	for _, q := range s.order {
		s.flushLocked(q)
	}
	s.mu.Unlock()
	s.stopOnce.Do(func() {
		if s.qosStop != nil {
			close(s.qosStop)
		}
	})
	if s.qosDone != nil {
		<-s.qosDone
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// inferRequest is the request body of the inference endpoints.
type inferRequest struct {
	// Model is the Table-I model name; empty picks the endpoint's
	// default (the first loaded model of the endpoint's task).
	Model string `json:"model"`
	// Class is the request's QoS class: "interactive", "standard"
	// (default) or "best-effort". Under brownout, best-effort traffic is
	// shed first.
	Class string `json:"class"`
}

// inferResponse reports the request's fate and its AI-tax accounting.
// Queue time is wall clock (real batching delay on this host); the
// service, inference and compute-tax times are virtual (simulated
// execution on the configured SoC).
type inferResponse struct {
	Model string `json:"model"`
	Batch int    `json:"batch_size"`
	// QueueMS is wall-clock admission-to-service time.
	QueueMS float64 `json:"queue_ms"`
	// ServiceMS is the whole batch's virtual execution time.
	ServiceMS float64 `json:"service_ms"`
	// InferMS is this request's share of the batch's inference time.
	InferMS float64 `json:"infer_ms"`
	// TaxMS is queue wait plus this request's share of the batch's
	// pipeline tax and dispatch overhead.
	TaxMS float64 `json:"tax_ms"`
	// ServedBy, when set, is the cheaper model the brownout controller
	// downshifted this request to.
	ServedBy string `json:"served_by,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// resolveModel picks the request's model: an explicit name must exist
// in the catalog (404 otherwise, via models.ErrUnknownModel), be loaded
// (404), and match the endpoint's task (400); an empty name falls back
// to the endpoint's default loaded model.
func (s *Server) resolveModel(name string, task models.Task) (*models.Model, int, error) {
	if name == "" {
		for _, m := range s.cfg.Models {
			if m.Task == task {
				return m, 0, nil
			}
		}
		return nil, http.StatusNotFound, fmt.Errorf("no %s model loaded", task)
	}
	m, err := models.ByName(name)
	if err != nil {
		if errors.Is(err, models.ErrUnknownModel) {
			return nil, http.StatusNotFound, err
		}
		return nil, http.StatusInternalServerError, err
	}
	if _, ok := s.cfg.modelByName(m.Name); !ok {
		return nil, http.StatusNotFound, fmt.Errorf("model %q is not loaded (see /v1/models)", m.Name)
	}
	if m.Task != task {
		return nil, http.StatusBadRequest, fmt.Errorf("model %q is a %s model, not %s", m.Name, m.Task, task)
	}
	return m, 0, nil
}

func (s *Server) handleInfer(w http.ResponseWriter, r *http.Request, task models.Task) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST only"})
		return
	}
	var req inferRequest
	if r.Body != nil {
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil && err.Error() != "EOF" {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request body: " + err.Error()})
			return
		}
	}
	m, status, err := s.resolveModel(req.Model, task)
	if err != nil {
		writeJSON(w, status, errorResponse{Error: err.Error()})
		return
	}
	cls, err := qos.ParseClass(req.Class)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	arrival := s.now()
	recordOffered(s.rec, arrival, m.Name)
	hr := &httpReq{arrival: arrival, ch: make(chan httpDone, 1)}
	s.mu.Lock()
	v, q, trig := s.admit(hr, m.Name, cls)
	if v == admitted {
		s.rec.Observe(arrival, obs.DepthSeries(q.model.Name), float64(q.queued))
		s.rec.Observe(arrival, obs.DepthSeries(obs.AllModels), float64(s.backlog()))
	}
	switch trig {
	case flushNow:
		s.flushLocked(q)
	case openWindow:
		t := time.AfterFunc(s.cfg.BatchWindow, func() {
			s.mu.Lock()
			q.stopWindow = nil
			s.flushLocked(q)
			s.mu.Unlock()
		})
		q.stopWindow = func() { t.Stop() }
	}
	s.mu.Unlock()

	switch v {
	case draining:
		// Tell clients when to come back, not just to go away.
		w.Header().Set("Retry-After", s.retryAfter)
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "server shutting down"})
		return
	case shed:
		recordTurnedAway(s.rec, arrival, m.Name, true, s.cfg.SLO)
		w.Header().Set("Retry-After", s.retryAfter)
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{
			Error: fmt.Sprintf("shedding %s traffic under load; retry later", cls),
		})
		return
	case rejected:
		recordTurnedAway(s.rec, arrival, m.Name, false, s.cfg.SLO)
		w.Header().Set("Retry-After", s.retryAfter)
		writeJSON(w, http.StatusTooManyRequests, errorResponse{
			Error: fmt.Sprintf("queue for %q is full (depth %d); retry later", q.model.Name, s.cfg.QueueDepth),
		})
		return
	}

	select {
	case done := <-hr.ch:
		if done.err != nil {
			writeJSON(w, http.StatusInternalServerError, errorResponse{Error: done.err.Error()})
			return
		}
		// Latency is the client's composite view: wall-clock queueing on
		// this host plus the batch's virtual execution on the simulated
		// SoC.
		service := s.cfg.DispatchCost + done.cost.Service
		o := Outcome{
			Model:   m.Name,
			Arrival: sim.Time(hr.arrival),
			Flushed: sim.Time(hr.flushed),
			Started: sim.Time(done.started),
		}
		o.Finished = o.Started.Add(service)
		o.charge(done.cost, s.cfg.DispatchCost)
		recordServed(s.rec, o, s.now(), s.cfg.SLO)
		if s.qs != nil {
			s.mu.Lock()
			s.score(m.Name, o.Latency())
			s.mu.Unlock()
		}
		queueWait := o.Started.Sub(o.Arrival)
		resp := inferResponse{
			Model:     m.Name,
			Batch:     o.BatchSize,
			QueueMS:   ms(queueWait),
			ServiceMS: ms(service),
			InferMS:   ms(o.Infer),
			TaxMS:     ms(queueWait + o.ComputeTax),
		}
		if q.model != m {
			resp.ServedBy = q.model.Name
		}
		writeJSON(w, http.StatusOK, resp)
	case <-r.Context().Done():
		// Deadline propagation: if the request is still queued, pull it
		// out before dispatch so the batch never pays for a client that
		// left — it counts as cancelled, not served. If it already
		// flushed, the buffered channel lets the batch finish without
		// leaking the executor goroutine.
		s.mu.Lock()
		removed := s.withdraw(q, hr)
		s.mu.Unlock()
		if removed {
			at := s.now()
			s.metrics.Inc(telemetry.Labeled("aitax_serve_cancelled_total", "model", m.Name))
			s.rec.Add(at, obs.CancelledSeries(m.Name), 1)
			s.rec.Add(at, obs.CancelledSeries(obs.AllModels), 1)
		}
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "client cancelled"})
	}
}

// flushLocked closes q's open batch and schedules its execution. The
// caller holds s.mu.
func (s *Server) flushLocked(q *queue[*httpReq]) {
	batch := s.flush(q)
	if batch == nil {
		return
	}
	at := s.now()
	for _, hr := range batch {
		hr.flushed = at
	}
	s.wg.Add(1)
	go s.execute(q, batch)
}

// execute runs one batch on an executor slot: a lab job measuring the
// batch on a fresh simulated stack (plans cached process-wide).
func (s *Server) execute(q *queue[*httpReq], batch []*httpReq) {
	defer s.wg.Done()
	s.sem <- struct{}{}
	defer func() { <-s.sem }()

	k := len(batch)
	s.mu.Lock()
	started := s.now()
	steered, factor := s.pickup(q, k, started)
	s.mu.Unlock()
	cfg := s.cfg
	if steered {
		cfg.Delegate = s.cfg.QoS.SteerDelegate
	}
	results := s.lab.Run(context.Background(), []lab.Job{{
		ID: fmt.Sprintf("%s/b%d", q.model.Name, k),
		Run: func(ctx context.Context) (any, error) {
			return MeasureBatch(ctx, cfg, q.model, k)
		},
	}})
	if s.qs != nil {
		s.mu.Lock()
		s.release(steered, s.now())
		s.mu.Unlock()
	}
	res := results[0]
	var cost BatchCost
	if res.Err == nil {
		cost = throttled(res.Value.(BatchCost), factor)
		s.metrics.Observe(telemetry.Labeled("aitax_serve_service_ms", "model", q.model.Name),
			ms(s.cfg.DispatchCost+cost.Service))
	}
	for _, hr := range batch {
		hr.ch <- httpDone{started: started, cost: cost, err: res.Err}
	}
}

// handleModels lists the loaded models and their endpoints.
func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	type entry struct {
		Model    string `json:"model"`
		Task     string `json:"task"`
		Endpoint string `json:"endpoint"`
	}
	out := make([]entry, 0, len(s.cfg.Models))
	for _, m := range s.cfg.Models {
		e := entry{Model: m.Name, Task: string(m.Task)}
		for _, ep := range endpointTask {
			if ep.task == m.Task {
				e.Endpoint = ep.path
			}
		}
		out = append(out, e)
	}
	writeJSON(w, http.StatusOK, out)
}

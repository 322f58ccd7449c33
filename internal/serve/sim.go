package serve

import (
	"fmt"
	"strconv"
	"time"

	"aitax/internal/loadgen"
	"aitax/internal/qos"
	"aitax/internal/sim"
	"aitax/internal/telemetry"
)

// Outcome is one request's fate. All times are on the harness's clock
// (virtual time in the simulator, wall clock since start in the HTTP
// frontend); a rejected request has only Arrival set and everything
// else zero.
type Outcome struct {
	ID    int
	Model string
	// Arrival, Flushed, Started, Finished are the request's queueing
	// milestones: admission, batch flush (window close or max-batch),
	// executor pickup, completion.
	Arrival  sim.Time
	Flushed  sim.Time
	Started  sim.Time
	Finished sim.Time
	// Rejected marks an arrival turned away by admission control.
	Rejected bool
	// Class is the request's QoS class (Standard when undeclared).
	Class qos.Class
	// Shed marks an arrival turned away by the brownout controller's
	// class shedding (distinct from a queue-full rejection).
	Shed bool
	// ServedAs, when non-empty, is the cheaper model the brownout
	// controller downshifted this request to.
	ServedAs string
	// Steered marks a request whose batch ran on the steer delegate.
	Steered bool
	// BatchSize is the size of the batch that served the request.
	BatchSize int
	// Infer is the request's share of the batch's inference time — the
	// useful compute. Everything else in Latency is serving tax.
	Infer time.Duration
	// ComputeTax is the request's share of the batch's pipeline tax
	// plus its share of the per-dispatch overhead.
	ComputeTax time.Duration
	// Pre, Post, RPC and Exec are the request's share of the batch's
	// Table-III stage anatomy (see BatchCost) — the streaming recorder's
	// per-window tax export.
	Pre  time.Duration
	Post time.Duration
	RPC  time.Duration
	Exec time.Duration
}

// charge gives the request its share of its batch's cost and of the
// per-dispatch overhead.
func (o *Outcome) charge(cost BatchCost, dispatch time.Duration) {
	n := time.Duration(cost.Batch)
	o.BatchSize = cost.Batch
	o.Infer = cost.Infer / n
	o.ComputeTax = (cost.Tax + dispatch) / n
	o.Pre = cost.Pre / n
	o.Post = cost.Post / n
	o.RPC = cost.RPC / n
	o.Exec = cost.Exec / n
}

// Framework is the inference-stage time not attributed to FastRPC
// overhead or remote kernel execution: the framework/scheduling slice of
// the Table-III anatomy. On delegates that never cross to the DSP it is
// zero (all inference time counts as kernel execution).
func (o Outcome) Framework() time.Duration {
	if o.Exec == 0 && o.RPC == 0 {
		return 0
	}
	fw := o.Infer - o.RPC - o.Exec
	if fw < 0 {
		return 0
	}
	return fw
}

// KernelExec is the useful kernel-execution slice of the anatomy: the
// measured remote execution when the inference crossed to the DSP, the
// whole inference stage otherwise.
func (o Outcome) KernelExec() time.Duration {
	if o.Exec == 0 && o.RPC == 0 {
		return o.Infer
	}
	return o.Exec
}

// Latency is the end-to-end time the client observed.
func (o Outcome) Latency() time.Duration { return o.Finished.Sub(o.Arrival) }

// Tax is the non-inference share of the request's latency: batch wait,
// dispatch wait, its slice of the batch's pipeline tax and dispatch
// overhead, and time serialized behind batch co-riders.
func (o Outcome) Tax() time.Duration { return o.Latency() - o.Infer }

// BatchWait is time spent waiting for the batch window to close.
func (o Outcome) BatchWait() time.Duration { return o.Flushed.Sub(o.Arrival) }

// DispatchWait is time a flushed batch waited for a free executor.
func (o Outcome) DispatchWait() time.Duration { return o.Started.Sub(o.Flushed) }

// DepthSample is one step of a model's admitted-queue depth, for the
// Chrome trace's counter tracks.
type DepthSample struct {
	Model string
	At    sim.Time
	Depth int
}

// ModelBatches counts the batches one model's queue flushed.
type ModelBatches struct {
	Model   string
	Batches int
}

// SimResult is everything one virtual-time load simulation produced.
type SimResult struct {
	// Outcomes are in arrival order, rejected requests included.
	Outcomes []Outcome
	// End is the virtual time the last request completed.
	End sim.Time
	// Batches counts flushed batches per model, in Config.Models order.
	Batches []ModelBatches
	// Spans, Flows and Metrics are the run's telemetry (spans only when
	// Simulate was asked to trace).
	Spans   []telemetry.Span
	Flows   []telemetry.Flow
	Metrics *telemetry.Registry
	// Depth samples every admitted-queue depth change (traced runs).
	Depth []DepthSample
	// Degradation is the brownout controller's run accounting, nil when
	// the config carried no QoS policy.
	Degradation *Degradation
}

type simReq struct {
	out  Outcome
	span *telemetry.ActiveSpan
	wait *telemetry.ActiveSpan
}

type simBatch struct {
	q    *queue[*simReq]
	reqs []*simReq
}

// simulator runs the serving policy as a discrete-event simulation:
// single-threaded on one virtual clock, so one seed produces one
// history regardless of host parallelism.
type simulator struct {
	policy[*simReq]
	table  *CostTable
	eng    *sim.Engine
	tracer *telemetry.Tracer
	ready  []*simBatch // flushed batches awaiting an executor, FIFO
	free   int         // idle executors
	depth  []DepthSample
	traced bool
	// remaining counts arrivals not yet resolved and active the batches
	// in service — together they bound the controller's self-
	// rescheduling decision tick so the event queue drains.
	remaining int
	active    int
	tickID    sim.EventID
	tickArmed bool
}

// Simulate replays the arrival schedule against the serving policy in
// virtual time, pricing batches from the cost table. With traced set it
// additionally records per-request spans and queue-depth samples. A
// table that does not price every batch the config can form is an
// ErrCostTableGap.
func Simulate(cfg Config, table *CostTable, arrivals []loadgen.Arrival, traced bool) (*SimResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := table.covers(cfg); err != nil {
		return nil, err
	}
	pol, err := newPolicy[*simReq](cfg, telemetry.NewRegistry())
	if err != nil {
		return nil, err
	}
	s := &simulator{
		policy: pol,
		table:  table,
		eng:    sim.NewEngine(),
		free:   cfg.Workers,
		traced: traced,
	}
	if traced {
		s.tracer = telemetry.NewTracer(s.eng.Now)
	}
	reqs := make([]*simReq, len(arrivals))
	for i, a := range arrivals {
		if _, ok := s.queues[a.Model]; !ok {
			return nil, fmt.Errorf("serve: arrival %d asks for %q, not in the loaded set", a.ID, a.Model)
		}
		cls, err := qos.ParseClass(a.Class)
		if err != nil {
			return nil, fmt.Errorf("serve: arrival %d: %w", a.ID, err)
		}
		r := &simReq{out: Outcome{ID: a.ID, Model: a.Model, Class: cls}}
		reqs[i] = r
		at := sim.Time(a.At)
		s.eng.Schedule(at, func() { s.arrive(r) })
	}
	s.remaining = len(arrivals)
	if s.qs != nil && s.remaining > 0 {
		s.armTick()
	}
	s.eng.Run()
	res := &SimResult{
		Outcomes: make([]Outcome, len(reqs)),
		End:      s.eng.Now(),
		Metrics:  s.metrics,
		Depth:    s.depth,
	}
	for i, r := range reqs {
		res.Outcomes[i] = r.out
	}
	for _, q := range s.order {
		res.Batches = append(res.Batches, ModelBatches{Model: q.model.Name, Batches: q.batches})
	}
	if s.tracer != nil {
		res.Spans, res.Flows = s.tracer.Spans(), s.tracer.Flows()
	}
	if s.qs != nil {
		res.Degradation = s.qs.finish()
	}
	return res, nil
}

// armTick schedules the next brownout decision.
func (s *simulator) armTick() {
	s.tickArmed = true
	s.tickID = s.eng.After(s.qs.ctl.Ladder().Tick, s.qosTick)
}

// resolve retires n arrivals. Once no work remains it cancels the
// pending decision tick, so the engine's queue drains — the simulation
// ends at the last request's completion, not at some later tick.
func (s *simulator) resolve(n int) {
	s.remaining -= n
	if s.tickArmed && s.remaining == 0 && s.active == 0 {
		s.eng.Cancel(s.tickID)
		s.tickArmed = false
	}
}

// qosTick runs one brownout decision on the virtual clock.
func (s *simulator) qosTick() {
	s.tickArmed = false
	now := s.eng.Now()
	t := s.tick(now.Duration())
	if t.Changed && s.tracer != nil {
		sp := s.tracer.Instant(fmt.Sprintf("qos L%d->L%d", t.From, t.Level), "qos", telemetry.TrackCPU, nil, now)
		sp.SetAttr("driver", t.Driver)
		sp.SetAttr("pressure", fmt.Sprintf("%.2f", t.Pressure))
	}
	if s.remaining > 0 || s.active > 0 {
		s.armTick()
	}
}

func (s *simulator) sampleDepth(q *queue[*simReq]) {
	if s.traced {
		s.depth = append(s.depth, DepthSample{Model: q.model.Name, At: s.eng.Now(), Depth: q.queued})
	}
}

// arrive runs one request through admission and batch formation.
func (s *simulator) arrive(r *simReq) {
	name := r.out.Model
	now := s.eng.Now()
	r.out.Arrival = now
	v, q, trig := s.admit(r, name, r.out.Class)
	if q != nil && q.model.Name != name {
		r.out.ServedAs = q.model.Name
	}
	switch v {
	case shed:
		r.out.Shed = true
		if s.tracer != nil {
			sp := s.tracer.Instant("shed", "qos", telemetry.TrackCPU, nil, now)
			sp.SetAttr("model", name)
			sp.SetAttr("class", r.out.Class.String())
			sp.SetAttr("request", strconv.Itoa(r.out.ID))
		}
		s.resolve(1)
		return
	case rejected:
		r.out.Rejected = true
		if s.tracer != nil {
			sp := s.tracer.Instant("reject", "serve", telemetry.TrackCPU, nil, now)
			sp.SetAttr("model", name)
			sp.SetAttr("request", strconv.Itoa(r.out.ID))
		}
		s.resolve(1)
		return
	}
	s.sampleDepth(q)
	if s.tracer != nil {
		r.span = s.tracer.Start("request", "serve", telemetry.TrackCPU, nil)
		r.span.SetAttr("model", q.model.Name)
		r.span.SetAttr("request", strconv.Itoa(r.out.ID))
		r.wait = s.tracer.Start("queued", "serve", telemetry.TrackCPU, r.span)
	}
	switch trig {
	case flushNow:
		s.closeBatch(q)
	case openWindow:
		id := s.eng.After(s.cfg.BatchWindow, func() {
			q.stopWindow = nil
			s.closeBatch(q)
		})
		q.stopWindow = func() { s.eng.Cancel(id) }
	}
}

// closeBatch flushes q's open batch and hands it to the executor pool.
func (s *simulator) closeBatch(q *queue[*simReq]) {
	reqs := s.flush(q)
	if reqs == nil {
		return
	}
	now := s.eng.Now()
	for _, r := range reqs {
		r.out.Flushed = now
	}
	s.ready = append(s.ready, &simBatch{q: q, reqs: reqs})
	s.dispatch()
}

// dispatch starts ready batches on idle executors, FIFO. A steered
// batch is priced from the steer cost table and escapes the throttle.
func (s *simulator) dispatch() {
	for s.free > 0 && len(s.ready) > 0 {
		b := s.ready[0]
		s.ready = s.ready[1:]
		s.free--
		s.active++
		now := s.eng.Now()
		k := len(b.reqs)
		steered, factor := s.pickup(b.q, k, now.Duration())
		var cost BatchCost
		if steered {
			cost = s.table.SteerCost(b.q.model.Name, k)
		} else {
			cost = s.table.Cost(b.q.model.Name, k)
		}
		service := s.cfg.DispatchCost + throttled(cost, factor).Service
		var span *telemetry.ActiveSpan
		if s.tracer != nil {
			span = s.tracer.Start("batch", "serve", telemetry.TrackCPU, nil)
			span.SetAttr("model", b.q.model.Name)
			span.SetAttr("size", strconv.Itoa(k))
			if steered {
				span.SetAttr("steered", "true")
			}
		}
		for _, r := range b.reqs {
			r.out.Started = now
			r.out.Steered = steered
			if r.wait != nil {
				r.wait.End()
			}
		}
		s.sampleDepth(b.q)
		s.eng.After(service, func() {
			s.complete(b, cost, steered, span)
		})
	}
}

// complete finishes a batch: per-request accounting, executor release.
func (s *simulator) complete(b *simBatch, cost BatchCost, steered bool, span *telemetry.ActiveSpan) {
	now := s.eng.Now()
	if span != nil {
		span.End()
	}
	s.release(steered, now.Duration())
	for _, r := range b.reqs {
		r.out.Finished = now
		r.out.charge(cost, s.cfg.DispatchCost)
		if r.span != nil {
			r.span.End()
		}
		ms := float64(r.out.Latency()) / float64(time.Millisecond)
		s.metrics.Observe(telemetry.Labeled("aitax_serve_latency_ms", "model", b.q.model.Name), ms)
		s.metrics.Observe(telemetry.Labeled("aitax_serve_tax_ms", "model", b.q.model.Name),
			float64(r.out.Tax())/float64(time.Millisecond))
		s.score(r.out.Model, r.out.Latency())
	}
	s.free++
	s.active--
	s.dispatch()
	s.resolve(len(b.reqs))
}

package serve

import (
	"time"

	"aitax/internal/models"
	"aitax/internal/qos"
	"aitax/internal/telemetry"
)

// policy is the serving policy both harnesses run: admission control,
// micro-batch formation, the brownout controller's actions and the
// signals it decides on. It holds no clock and starts no goroutines —
// the simulator drives it from engine events on virtual time, the HTTP
// frontend under its mutex on the wall clock — so the benchmark and
// the server measure one implementation. R is the harness's request
// handle.
type policy[R comparable] struct {
	cfg     Config
	metrics *telemetry.Registry
	queues  map[string]*queue[R]
	order   []*queue[R] // Config.Models order
	// qs is the brownout state, nil without a QoS policy.
	qs *qosState
	// closed turns every arrival away (the HTTP frontend's drain).
	closed bool
}

// queue is one model's admission queue and its open batch.
type queue[R comparable] struct {
	model   *models.Model
	pending []R
	// queued counts admitted requests not yet in service — the
	// admission-control quantity.
	queued  int
	batches int
	// stopWindow cancels the open batch window; nil when none is open.
	stopWindow func()
}

// verdict is admission control's answer to one arrival.
type verdict int

const (
	admitted verdict = iota
	shed             // brownout rung 1 turned it away
	rejected         // its queue was full
	draining         // the harness is shutting down
)

// trigger tells the harness what an admission did to the open batch.
type trigger int

const (
	rideAlong  trigger = iota // nothing: the open window flushes it
	flushNow                  // the batch is full, or there is no window
	openWindow                // first rider: arm the batch window
)

func newPolicy[R comparable](cfg Config, metrics *telemetry.Registry) (policy[R], error) {
	p := policy[R]{cfg: cfg, metrics: metrics, queues: make(map[string]*queue[R], len(cfg.Models))}
	for _, m := range cfg.Models {
		q := &queue[R]{model: m}
		p.queues[m.Name] = q
		p.order = append(p.order, q)
	}
	if cfg.QoS != nil {
		qs, err := newQOSState(cfg)
		if err != nil {
			return p, err
		}
		p.qs = qs
	}
	return p, nil
}

// admit runs admission control for r, a request of class cls for
// model, and enqueues it when admitted. The queue is where it landed
// (or, rejected, the full queue it was bound for — a downshifted
// request's is its fallback model's); the trigger is what the harness
// must do about that queue's open batch.
func (p *policy[R]) admit(r R, model string, cls qos.Class) (verdict, *queue[R], trigger) {
	p.metrics.Inc(telemetry.Labeled("aitax_serve_requests_total", "model", model))
	if p.closed {
		return draining, nil, rideAlong
	}
	// Brownout rung 1: shed best-effort traffic at admission. Shed
	// outcomes are not fed back into the controller's burn signal — its
	// own action must not hold its pressure up.
	if p.qs != nil && p.qs.ctl.Shed(cls) {
		p.qs.deg.Shed[cls]++
		p.metrics.Inc(telemetry.Labeled("aitax_qos_shed_total", "class", cls.String()))
		return shed, nil, rideAlong
	}
	// Brownout rung 2: rewrite the request onto its cheaper fallback
	// model's queue; it batches, prices and serves as that model.
	q := p.queues[model]
	if p.qs != nil && p.qs.ctl.Downshift() {
		if to, ok := p.cfg.QoS.Downshift[model]; ok {
			q = p.queues[to]
			p.qs.deg.Downshifted++
			p.metrics.Inc(telemetry.Labeled("aitax_qos_downshift_total", "model", model))
		}
	}
	if q.queued >= p.cfg.QueueDepth {
		p.metrics.Inc(telemetry.Labeled("aitax_serve_rejected_total", "model", model))
		if p.qs != nil && p.covered(model) {
			p.qs.ctl.ObserveBad()
		}
		return rejected, q, rideAlong
	}
	q.queued++
	q.pending = append(q.pending, r)
	switch {
	case len(q.pending) >= p.cfg.MaxBatch || p.cfg.BatchWindow == 0:
		return admitted, q, flushNow
	case len(q.pending) == 1:
		return admitted, q, openWindow
	}
	return admitted, q, rideAlong
}

// flush closes q's open batch and its window, returning the riders
// (nil when the batch is empty).
func (p *policy[R]) flush(q *queue[R]) []R {
	if q.stopWindow != nil {
		q.stopWindow()
		q.stopWindow = nil
	}
	if len(q.pending) == 0 {
		return nil
	}
	batch := q.pending
	q.pending = nil
	q.batches++
	p.metrics.Inc(telemetry.Labeled("aitax_serve_batches_total", "model", q.model.Name))
	p.metrics.Observe(telemetry.Labeled("aitax_serve_batch_size", "model", q.model.Name), float64(len(batch)))
	return batch
}

// withdraw pulls a cancelled request out of q's open batch, reporting
// whether it was still there; emptying the batch closes its window.
func (p *policy[R]) withdraw(q *queue[R], r R) bool {
	for i, x := range q.pending {
		if x != r {
			continue
		}
		q.pending = append(q.pending[:i], q.pending[i+1:]...)
		q.queued--
		if len(q.pending) == 0 && q.stopWindow != nil {
			q.stopWindow()
			q.stopWindow = nil
		}
		return true
	}
	return false
}

// pickup starts a flushed batch of k riders from q on an executor at
// now. Brownout rung 3 decides whether it steers off the hot delegate;
// a batch that stays on it heats the die and, once the die throttles,
// runs at factor (< 1) of full speed (see throttled).
func (p *policy[R]) pickup(q *queue[R], k int, now time.Duration) (steered bool, factor float64) {
	q.queued -= k
	if p.qs == nil {
		return false, 1
	}
	if p.qs.ctl.Steer() {
		p.qs.deg.SteeredBatches++
		p.metrics.Inc("aitax_qos_steered_batches_total")
		return true, 1
	}
	if factor = p.qs.therm.ThrottleFactor(); factor < 1 {
		p.qs.deg.ThrottledBatches++
		p.metrics.Inc("aitax_qos_throttled_batches_total")
	}
	p.qs.accrue(now)
	p.qs.hot++
	return false, factor
}

// release ends a batch's service at now.
func (p *policy[R]) release(steered bool, now time.Duration) {
	if p.qs != nil && !steered {
		p.qs.accrue(now)
		p.qs.hot--
	}
}

// throttled stretches a batch's service time on a die running at factor
// of full speed: the stretch lands in every rider's latency, and so in
// its tax (DVFS is AI tax the thermal model charges).
func throttled(cost BatchCost, factor float64) BatchCost {
	if factor < 1 {
		cost.Service = time.Duration(float64(cost.Service) / factor)
	}
	return cost
}

// covered reports whether any objective covers model.
func (p *policy[R]) covered(model string) bool {
	for _, obj := range p.cfg.SLO {
		if c, _ := obj.Match(model, 0, true); c {
			return true
		}
	}
	return false
}

// score feeds one served request's SLO verdict into the controller's
// burn signal, scored against the model the client asked for (a
// downshifted request that meets the requested model's objective is a
// good outcome — that is the point of downshifting).
func (p *policy[R]) score(model string, latency time.Duration) {
	if p.qs == nil {
		return
	}
	covered, breached := false, false
	for _, obj := range p.cfg.SLO {
		c, b := obj.Match(model, latency, false)
		covered = covered || c
		breached = breached || b
	}
	switch {
	case !covered:
	case breached:
		p.qs.ctl.ObserveBad()
	default:
		p.qs.ctl.ObserveGood()
	}
}

// tick runs one brownout decision at now: the hot delegate's busy time
// integrated since the previous tick becomes the thermal model's
// utilization input, and the fullest queue the controller's occupancy
// signal.
func (p *policy[R]) tick(now time.Duration) qos.Tick {
	qs := p.qs
	dt := now - qs.lastTick
	qs.lastTick = now
	qs.accrue(now)
	util := 0.0
	if dt > 0 {
		util = float64(qs.busyInt) / (float64(dt) * float64(p.cfg.Workers))
	}
	qs.busyInt = 0
	faultTrip := p.cfg.Faults.ThermalTripAt > 0 && now >= p.cfg.Faults.ThermalTripAt
	t := qs.step(now, dt, util, p.queueFrac(), faultTrip)
	p.metrics.Set("aitax_qos_level", float64(t.Level))
	p.metrics.Set("aitax_qos_temp_c", qs.therm.TempC())
	if t.Changed {
		p.metrics.Inc("aitax_qos_transitions_total")
	}
	return t
}

// queueFrac is the fullest admission queue's occupancy in [0, 1].
func (p *policy[R]) queueFrac() float64 {
	max := 0
	for _, q := range p.order {
		if q.queued > max {
			max = q.queued
		}
	}
	return float64(max) / float64(p.cfg.QueueDepth)
}

// backlog counts admitted requests not yet in service, all queues.
func (p *policy[R]) backlog() int {
	n := 0
	for _, q := range p.order {
		n += q.queued
	}
	return n
}

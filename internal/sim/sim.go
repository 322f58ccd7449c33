// Package sim provides a deterministic discrete-event simulation kernel.
//
// All hardware and OS behaviour in this repository (CPU scheduling, DSP
// offload, memory traffic, thermal state) is expressed as events on a
// virtual clock so that every experiment regenerates byte-identically.
// Time is measured in nanoseconds of virtual time.
package sim

import (
	"context"
	"fmt"
	"math"
	"time"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration = time.Duration

// Nanoseconds returns t as a plain int64 nanosecond count.
func (t Time) Nanoseconds() int64 { return int64(t) }

// Duration returns the span from simulation start to t.
func (t Time) Duration() Duration { return Duration(t) }

// Add returns t shifted forward by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the span t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// String renders the time as a duration from simulation start.
func (t Time) String() string { return Duration(t).String() }

// entry is one pending event in the heap. It holds only plain values,
// so sifting it moves no pointers and pays no GC write barriers.
type entry struct {
	at   Time
	seq  uint64 // tiebreaker: FIFO among simultaneous events
	slot int32  // index of the event's callback in Engine.slots
}

func (a entry) before(b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// slot holds the parts of an event the heap does not order by. Slots are
// recycled through the engine's freelist once their event fires or is
// popped dead.
type slot struct {
	fn   func()
	dead bool
	// gen increments every time the slot is recycled, so an EventID
	// issued for a previous occupancy can never cancel the current one.
	gen uint32
}

// EventID identifies a scheduled event so it may be cancelled. The zero
// value is valid and cancels nothing; an ID whose event already fired
// (and whose slot was recycled) is detected by generation and ignored.
type EventID struct {
	slot int32 // slot index + 1, so the zero value names no slot
	gen  uint32
}

// Engine is a discrete-event simulator. It is not safe for concurrent use;
// simulated concurrency is expressed through events, not goroutines.
type Engine struct {
	now Time
	// heap is a 4-ary min-heap of pending events ordered by (at, seq).
	heap  []entry
	slots []slot
	// free recycles slot indexes: a simulation schedules millions of
	// events but only ever has a bounded number pending, so the slab
	// stays at the peak queue depth.
	free []int32
	seq  uint64

	// Self-counters; see Scheduled, Fired, Cancelled and PeakPending.
	fired, cancelled uint64
	live, peak       int

	// Limit guards against runaway simulations; zero means no limit.
	Limit Time
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Schedule runs fn at absolute virtual time at. Scheduling in the past
// panics: it always indicates a modelling bug.
func (e *Engine) Schedule(at Time, fn func()) EventID {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	var i int32
	if n := len(e.free); n > 0 {
		i = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		i = int32(len(e.slots))
		e.slots = append(e.slots, slot{})
	}
	s := &e.slots[i]
	s.fn = fn
	e.push(entry{at: at, seq: e.seq, slot: i})
	e.seq++
	if e.live++; e.live > e.peak {
		e.peak = e.live
	}
	return EventID{slot: i + 1, gen: s.gen}
}

// release returns a popped event's slot to the freelist, bumping its
// generation so outstanding EventIDs for it become inert.
func (e *Engine) release(i int32) {
	s := &e.slots[i]
	s.gen++
	s.fn = nil
	s.dead = false
	e.free = append(e.free, i)
}

// After runs fn d from now. Negative d panics.
func (e *Engine) After(d Duration, fn func()) EventID {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.Schedule(e.now.Add(d), fn)
}

// Cancel prevents a pending event from firing. Cancelling an already-fired
// or already-cancelled event is a no-op (the generation check catches IDs
// whose slot has since been recycled for a newer event).
func (e *Engine) Cancel(id EventID) {
	if id.slot == 0 {
		return
	}
	if s := &e.slots[id.slot-1]; s.gen == id.gen && !s.dead {
		s.dead = true
		e.live--
	}
}

// Step fires the next pending event. It reports whether an event fired.
func (e *Engine) Step() bool {
	for len(e.heap) > 0 {
		next := e.pop()
		if e.slots[next.slot].dead {
			e.release(next.slot)
			e.cancelled++
			continue
		}
		if next.at < e.now {
			panic("sim: time went backwards")
		}
		e.now = next.at
		fn := e.slots[next.slot].fn
		// Release before firing: fn may schedule new events and reuse
		// this slot, which is safe once the generation is bumped.
		e.release(next.slot)
		e.live--
		e.fired++
		fn()
		return true
	}
	return false
}

// Run fires events until the queue drains or the Limit is reached.
// It returns the final virtual time.
func (e *Engine) Run() Time {
	for e.Step() {
		if e.Limit > 0 && e.now > e.Limit {
			panic(fmt.Sprintf("sim: exceeded time limit %v", e.Limit))
		}
	}
	return e.now
}

// RunCtx fires events until the queue drains, checking ctx between
// batches of 4096 events so a cancelled caller stops promptly. It returns
// ctx's error if ctx ends first. Limit is not checked.
func (e *Engine) RunCtx(ctx context.Context) error {
	const batch = 4096
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		for i := 0; i < batch; i++ {
			if !e.Step() {
				return nil
			}
		}
	}
}

// RunUntil fires events up to and including time t, leaving later events
// pending. The clock is advanced to t even if no event lands exactly there.
func (e *Engine) RunUntil(t Time) {
	for len(e.heap) > 0 {
		next := e.heap[0]
		if e.slots[next.slot].dead {
			e.release(e.pop().slot)
			e.cancelled++
			continue
		}
		if next.at > t {
			break
		}
		e.Step()
	}
	if e.now < t {
		e.now = t
	}
}

// Pending reports the number of live events in the queue.
func (e *Engine) Pending() int { return e.live }

// Scheduled reports how many events have been scheduled so far. It
// moves on every Schedule or After call and on nothing else.
func (e *Engine) Scheduled() uint64 { return e.seq }

// Fired reports how many events have fired.
func (e *Engine) Fired() uint64 { return e.fired }

// Cancelled reports how many cancelled events have been popped and
// discarded without firing.
func (e *Engine) Cancelled() uint64 { return e.cancelled }

// PeakPending reports the largest number of live events ever pending
// at once.
func (e *Engine) PeakPending() int { return e.peak }

// push adds x to the heap, sifting it up past every parent it precedes.
func (e *Engine) push(x entry) {
	h := append(e.heap, x)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !x.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
	e.heap = h
}

// pop removes and returns the heap's first entry.
func (e *Engine) pop() entry {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	e.heap = h
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j := c + 1; j < c+4 && j < n; j++ {
			if h[j].before(h[m]) {
				m = j
			}
		}
		if !h[m].before(last) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = last
	return top
}

// Resource is a capacity-limited server with FIFO queueing: the building
// block for modelling a DSP, a memory port, or any other contended unit.
// Acquire requests enter service in request order; each holds one slot for
// its stated service duration.
type Resource struct {
	eng      *Engine
	name     string
	capacity int
	inUse    int
	waiters  []*resWaiter

	// Accounting.
	busyTime    Duration // total slot-seconds of service completed
	lastChange  Time
	utilAccum   float64 // integral of (inUse/capacity) dt
	served      int
	queuedPeak  int
	totalQueued Duration // integral of queue length dt
}

type resWaiter struct {
	hold  Duration
	ready func(start, end Time)
}

// NewResource creates a resource with the given parallel capacity.
func NewResource(eng *Engine, name string, capacity int) *Resource {
	if capacity <= 0 {
		panic("sim: resource capacity must be positive")
	}
	return &Resource{eng: eng, name: name, capacity: capacity, lastChange: eng.Now()}
}

// Name returns the resource's name.
func (r *Resource) Name() string { return r.name }

// Capacity returns the resource's parallel capacity.
func (r *Resource) Capacity() int { return r.capacity }

// InUse returns the number of occupied slots.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen returns the number of waiting requests.
func (r *Resource) QueueLen() int { return len(r.waiters) }

func (r *Resource) account() {
	now := r.eng.Now()
	dt := float64(now.Sub(r.lastChange))
	r.utilAccum += dt * float64(r.inUse) / float64(r.capacity)
	r.totalQueued += Duration(dt * float64(len(r.waiters)))
	r.lastChange = now
}

// Acquire requests hold time on the resource. ready is invoked when the
// request completes service, with the virtual times service started and
// ended. Requests are served FIFO.
func (r *Resource) Acquire(hold Duration, ready func(start, end Time)) {
	if hold < 0 {
		panic("sim: negative hold")
	}
	r.account()
	w := &resWaiter{hold: hold, ready: ready}
	r.waiters = append(r.waiters, w)
	if len(r.waiters) > r.queuedPeak {
		r.queuedPeak = len(r.waiters)
	}
	r.pump()
}

func (r *Resource) pump() {
	for r.inUse < r.capacity && len(r.waiters) > 0 {
		w := r.waiters[0]
		r.waiters = r.waiters[1:]
		r.inUse++
		start := r.eng.Now()
		end := start.Add(w.hold)
		r.eng.Schedule(end, func() {
			r.account()
			r.inUse--
			r.busyTime += w.hold
			r.served++
			if w.ready != nil {
				w.ready(start, end)
			}
			r.pump()
		})
	}
}

// Utilization returns the time-averaged fraction of capacity in use from
// simulation start to now.
func (r *Resource) Utilization() float64 {
	r.account()
	total := float64(r.eng.Now())
	if total == 0 {
		return 0
	}
	return r.utilAccum / total
}

// Served returns the number of completed requests.
func (r *Resource) Served() int { return r.served }

// BusyTime returns the cumulative service time delivered.
func (r *Resource) BusyTime() Duration { return r.busyTime }

// QueuePeak returns the maximum observed queue length.
func (r *Resource) QueuePeak() int { return r.queuedPeak }

// MeanQueueLen returns the time-averaged queue length.
func (r *Resource) MeanQueueLen() float64 {
	r.account()
	total := float64(r.eng.Now())
	if total == 0 {
		return 0
	}
	return float64(r.totalQueued) / total
}

// RNG is a small deterministic PRNG (xorshift64*) used for all simulated
// stochastic behaviour. math/rand would also do, but a local implementation
// pins the sequence across Go releases.
type RNG struct{ state uint64 }

// NewRNG returns a generator seeded with seed (zero is remapped).
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &RNG{state: seed}
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Float64 returns a uniform value in [0,1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Intn returns a uniform value in [0,n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Norm returns a normally distributed value with the given mean and
// standard deviation (Box–Muller).
func (r *RNG) Norm(mean, stddev float64) float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// LogNorm returns a log-normally distributed value whose underlying normal
// has the given mu and sigma.
func (r *RNG) LogNorm(mu, sigma float64) float64 {
	return math.Exp(r.Norm(mu, sigma))
}

// Exp returns an exponentially distributed value with the given mean.
func (r *RNG) Exp(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Jitter returns d scaled by a factor drawn from N(1, cv) truncated at
// ±3cv and floored at 5% of d, modelling run-to-run variability with
// coefficient of variation cv.
func (r *RNG) Jitter(d Duration, cv float64) Duration {
	if cv <= 0 || d <= 0 {
		return d
	}
	f := r.Norm(1, cv)
	lo, hi := 1-3*cv, 1+3*cv
	if f < lo {
		f = lo
	}
	if f > hi {
		f = hi
	}
	if f < 0.05 {
		f = 0.05
	}
	return Duration(float64(d) * f)
}

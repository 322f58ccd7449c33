package sim

import (
	"container/heap"
	"fmt"
)

// refEngine is the engine as it stood before the typed heap: a
// container/heap of pointers to recycled event structs. It is kept only
// as the reference the property test and BenchmarkEngineReference
// compare Engine against; no production code can select it.
type refEngine struct {
	now   Time
	queue refQueue
	seq   uint64
	free  []*refEvent
	Limit Time
}

type refEvent struct {
	at   Time
	seq  uint64
	fn   func()
	dead bool
	gen  uint32
}

type refEventID struct {
	ev  *refEvent
	gen uint32
}

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x interface{}) { *q = append(*q, x.(*refEvent)) }
func (q *refQueue) Pop() interface{} {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

func (e *refEngine) Now() Time { return e.now }

func (e *refEngine) Schedule(at Time, fn func()) refEventID {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	var ev *refEvent
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		ev.at, ev.seq, ev.fn, ev.dead = at, e.seq, fn, false
	} else {
		ev = &refEvent{at: at, seq: e.seq, fn: fn}
	}
	e.seq++
	heap.Push(&e.queue, ev)
	return refEventID{ev: ev, gen: ev.gen}
}

func (e *refEngine) recycle(ev *refEvent) {
	ev.gen++
	ev.fn = nil
	ev.dead = false
	e.free = append(e.free, ev)
}

func (e *refEngine) After(d Duration, fn func()) refEventID {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.Schedule(e.now.Add(d), fn)
}

func (e *refEngine) Cancel(id refEventID) {
	if id.ev != nil && id.ev.gen == id.gen {
		id.ev.dead = true
	}
}

func (e *refEngine) Step() bool {
	for len(e.queue) > 0 {
		ev := heap.Pop(&e.queue).(*refEvent)
		if ev.dead {
			e.recycle(ev)
			continue
		}
		if ev.at < e.now {
			panic("sim: time went backwards")
		}
		e.now = ev.at
		fn := ev.fn
		e.recycle(ev)
		fn()
		return true
	}
	return false
}

func (e *refEngine) Run() Time {
	for e.Step() {
		if e.Limit > 0 && e.now > e.Limit {
			panic(fmt.Sprintf("sim: exceeded time limit %v", e.Limit))
		}
	}
	return e.now
}

func (e *refEngine) RunUntil(t Time) {
	for len(e.queue) > 0 {
		next := e.queue[0]
		if next.dead {
			e.recycle(heap.Pop(&e.queue).(*refEvent))
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

func (e *refEngine) Pending() int {
	n := 0
	for _, ev := range e.queue {
		if !ev.dead {
			n++
		}
	}
	return n
}

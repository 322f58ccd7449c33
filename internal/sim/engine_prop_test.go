package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// driven wraps one engine implementation behind closures so the property
// test can drive Engine and refEngine with the same operation sequence.
// Every callback records its label in log and, depending on the label,
// schedules a child or cancels an earlier event, so nested scheduling
// and cancellation from inside callbacks are covered too.
type driven struct {
	after    func(d Duration, fn func())
	cancel   func(i int) // i < 0 cancels the zero EventID
	issued   func() int
	now      func() Time
	step     func() bool
	runUntil func(Time)
	pending  func() int
	log      []int
	next     int
}

func (d *driven) schedule(delay Duration) {
	label := d.next
	d.next++
	d.after(delay, func() {
		d.log = append(d.log, label)
		if label%5 == 0 {
			d.schedule(Duration(label % 3))
		}
		if label%7 == 0 {
			d.cancel(label % d.issued())
		}
	})
}

func driveEngine(e *Engine) *driven {
	var ids []EventID
	return &driven{
		after: func(dl Duration, fn func()) { ids = append(ids, e.After(dl, fn)) },
		cancel: func(i int) {
			if i < 0 {
				e.Cancel(EventID{})
				return
			}
			e.Cancel(ids[i])
		},
		issued:   func() int { return len(ids) },
		now:      e.Now,
		step:     e.Step,
		runUntil: e.RunUntil,
		pending:  e.Pending,
	}
}

func driveReference(e *refEngine) *driven {
	var ids []refEventID
	return &driven{
		after: func(dl Duration, fn func()) { ids = append(ids, e.After(dl, fn)) },
		cancel: func(i int) {
			if i < 0 {
				e.Cancel(refEventID{})
				return
			}
			e.Cancel(ids[i])
		},
		issued:   func() int { return len(ids) },
		now:      e.Now,
		step:     e.Step,
		runUntil: e.RunUntil,
		pending:  e.Pending,
	}
}

// TestEngineMatchesReference drives Engine and the container/heap
// reference engine with the same seeded random mix of After (delays of
// 0-3 ns, so most timestamps tie), Cancel (including the zero ID and
// stale IDs whose slot has since been recycled), Step and RunUntil. The
// firing order, the clock and the pending count must agree after every
// operation: FIFO tie-break, inert stale IDs and RunUntil's clock rule.
func TestEngineMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		got, want := driveEngine(NewEngine()), driveReference(&refEngine{})
		rng := NewRNG(seed)
		checked := 0 // got.log[:checked] already matched the reference
		for op := 0; op < 2000; op++ {
			var what string
			switch r := rng.Intn(10); {
			case r < 4:
				delay := Duration(rng.Intn(4))
				got.schedule(delay)
				want.schedule(delay)
				what = fmt.Sprintf("After(%d)", delay)
			case r < 6:
				i := -1
				if n := got.issued(); n > 0 {
					i = rng.Intn(n+1) - 1
				}
				got.cancel(i)
				want.cancel(i)
				what = fmt.Sprintf("Cancel(#%d)", i)
			case r < 9:
				if g, w := got.step(), want.step(); g != w {
					t.Fatalf("seed %d op %d: Step() = %v, reference %v", seed, op, g, w)
				}
				what = "Step"
			default:
				until := got.now() + Time(rng.Intn(6))
				got.runUntil(until)
				want.runUntil(until)
				what = fmt.Sprintf("RunUntil(%d)", until)
			}
			if !reflect.DeepEqual(got.log[checked:], want.log[checked:]) {
				t.Fatalf("seed %d op %d %s: fired %v, reference %v", seed, op, what, got.log[checked:], want.log[checked:])
			}
			checked = len(got.log)
			if got.now() != want.now() || got.pending() != want.pending() {
				t.Fatalf("seed %d op %d %s: now=%d pending=%d, reference now=%d pending=%d",
					seed, op, what, got.now(), got.pending(), want.now(), want.pending())
			}
		}
		for got.step() {
		}
		for want.step() {
		}
		if !reflect.DeepEqual(got.log, want.log) || got.now() != want.now() {
			t.Fatalf("seed %d: drained runs differ", seed)
		}
	}
}

func TestEngineCounters(t *testing.T) {
	e := NewEngine()
	noop := func() {}
	e.Schedule(10, noop)
	dead := e.Schedule(20, noop)
	e.Schedule(20, noop)
	e.Cancel(dead)
	e.Cancel(dead) // a second cancel changes nothing
	e.Cancel(EventID{})
	if e.Scheduled() != 3 || e.PeakPending() != 3 || e.Pending() != 2 {
		t.Fatalf("scheduled=%d peak=%d pending=%d, want 3 3 2", e.Scheduled(), e.PeakPending(), e.Pending())
	}
	e.Run()
	if e.Fired() != 2 || e.Cancelled() != 1 || e.Pending() != 0 {
		t.Fatalf("fired=%d cancelled=%d pending=%d, want 2 1 0", e.Fired(), e.Cancelled(), e.Pending())
	}
	stale := e.After(5, noop)
	e.Run()
	e.Cancel(stale) // fired already: inert
	e.After(1, noop)
	if e.Scheduled() != 5 || e.Fired() != 3 || e.Cancelled() != 1 || e.PeakPending() != 3 || e.Pending() != 1 {
		t.Fatalf("scheduled=%d fired=%d cancelled=%d peak=%d pending=%d, want 5 3 1 3 1",
			e.Scheduled(), e.Fired(), e.Cancelled(), e.PeakPending(), e.Pending())
	}
}

func TestEngineSteadyStateAllocatesNothing(t *testing.T) {
	e := NewEngine()
	noop := func() {}
	for i := 0; i < 64; i++ {
		e.After(Duration(i), noop)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		e.After(Duration(e.Now()%97), noop)
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("After+Step allocated %v times per event, want 0", allocs)
	}
}

// benchEngine keeps 64 events pending and, per iteration, schedules one
// at a spread of delays and fires the earliest: the engine's steady
// state inside a simulation.
func benchEngine(b *testing.B, after func(Duration, func()), step func() bool) {
	noop := func() {}
	for i := 0; i < 64; i++ {
		after(Duration(i%97)*1000, noop)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		after(Duration(i%97)*1000, noop)
		step()
	}
}

func BenchmarkEngine(b *testing.B) {
	e := NewEngine()
	benchEngine(b, func(d Duration, fn func()) { e.After(d, fn) }, e.Step)
}

func BenchmarkEngineReference(b *testing.B) {
	e := &refEngine{}
	benchEngine(b, func(d Duration, fn func()) { e.After(d, fn) }, e.Step)
}

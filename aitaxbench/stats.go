package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// tailBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const tailBeyond = 10

// tailLadder holds the percentiles a tail may be reported at, highest
// first.
var tailLadder = []float64{0.999, 0.99, 0.98, 0.95, 0.9, 0.75, 0.5}

// tailQuantile returns the highest percentile of tailLadder that leaves
// at least tailBeyond of n samples beyond it, or the median when n is
// too small for any.
func tailQuantile(n int) float64 {
	for _, q := range tailLadder {
		if float64(n)*(1-q) >= tailBeyond {
			return q
		}
	}
	return 0.5
}

// quantile is the nearest-rank q-quantile of xs (which it sorts).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// median is the middle value of xs (the mean of the middle two for an
// even count); it sorts xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// span is one traced call the benchmark made into a layer: its name,
// its wall-clock interval relative to the trace start, and the span
// that caused it (0 for a root).
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Self   time.Duration `json:"self_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []*span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its id (0 on a nil tracer).
func (t *tracer) add(name string, parent int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, &span{ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.t0), End: end.Sub(t.t0)})
	return id
}

// begin opens a span that end closes. The id is reserved at once so
// children started before end can name their parent.
func (t *tracer) begin(name string, parent int64) *span {
	if t == nil {
		return nil
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &span{ID: int64(len(t.spans) + 1), Parent: parent, Name: name, Start: now.Sub(t.t0)}
	t.spans = append(t.spans, s)
	return s
}

// end closes s; a nil span (from a nil tracer) is ignored.
func (t *tracer) end(s *span) {
	if s == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	s.End = now.Sub(t.t0)
	t.mu.Unlock()
}

// id returns s's id, 0 for a nil span.
func (s *span) id() int64 {
	if s == nil {
		return 0
	}
	return s.ID
}

// named returns the durations, in ms, of every span called name.
func (t *tracer) named(name string) []float64 {
	var out []float64
	for _, s := range t.spansNamed(name) {
		out = append(out, ms(s.End-s.Start))
	}
	return out
}

// spansNamed returns every span called name.
func (t *tracer) spansNamed(name string) []*span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []*span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// children returns the spans whose parent is id.
func (t *tracer) children(id int64) []*span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []*span
	for _, s := range t.spans {
		if s.Parent == id {
			out = append(out, s)
		}
	}
	return out
}

// setSelfTimes fills every span's Self: its duration minus the part of
// its interval that its direct children cover. Children that overlap
// each other (parallel jobs) are counted once.
func setSelfTimes(spans []*span) {
	kids := make(map[int64][]*span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	for _, s := range spans {
		s.Self = (s.End - s.Start) - covered(s.Start, s.End, kids[s.ID])
	}
}

// covered is the length of the union of the children's intervals,
// clipped to [start, end].
func covered(start, end time.Duration, children []*span) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, start), min(c.End, end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB time.Duration
	for i, v := range ivs {
		switch {
		case i == 0:
			curA, curB = v.a, v.b
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if len(ivs) > 0 {
		total += curB - curA
	}
	return total
}

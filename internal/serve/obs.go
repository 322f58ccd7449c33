package serve

import (
	"sort"
	"time"

	"aitax/internal/obs"
)

// SimObs is the streaming-observability view of a finished load
// simulation: the windowed recorder, the closed rows (for JSONL and
// Chrome counter export), and the SLO monitor's verdicts. It is built
// by replaying the simulator's outcome list — already byte-identical at
// any parallelism — through the same obs layer the wall-clock HTTP
// frontend feeds live, so reports, goldens and dashboards come from one
// code path.
type SimObs struct {
	Recorder *obs.Recorder
	// Monitor is nil when no objectives were configured.
	Monitor *obs.Monitor
	// Rows are the closed windows in index order.
	Rows []obs.Row
	// Models are the configured model names, in config order.
	Models []string
	// End is the virtual time the run drained at.
	End time.Duration
}

// obsEvent is one replay step; kind orders simultaneous events
// deterministically (admission before rejection before completion
// before executor pickup).
type obsEvent struct {
	at   time.Duration
	kind int
	idx  int // index into res.Outcomes
}

const (
	evArrive = iota
	evReject
	evFinish
	evStart
	evShed
)

// BuildSimObs replays a finished simulation into the streaming
// observability layer. window is the aggregation window width (zero =
// the recorder default); objectives, when non-empty, attach an SLO
// burn-rate monitor fed by the closed windows.
func BuildSimObs(cfg Config, res *SimResult, window time.Duration, objectives []obs.Objective) *SimObs {
	so := &SimObs{End: res.End.Duration()}
	for _, m := range cfg.Models {
		so.Models = append(so.Models, m.Name)
	}

	var mon *obs.Monitor
	rec := obs.NewRecorder(obs.RecorderConfig{
		Window: window,
		// The replay is ordered, so every window beyond the horizon is
		// final: keep just enough live for the dashboard's rolling view.
		Keep: 64,
		OnClose: func(row obs.Row) {
			so.Rows = append(so.Rows, row)
			if mon != nil {
				mon.OnRow(row)
			}
		},
	})
	if len(objectives) > 0 {
		mon = obs.NewMonitor(objectives, rec.Window())
		mon.KeepHistory = true
	}
	so.Recorder = rec
	so.Monitor = mon

	events := make([]obsEvent, 0, 4*len(res.Outcomes))
	for i, o := range res.Outcomes {
		if o.Shed {
			events = append(events, obsEvent{o.Arrival.Duration(), evShed, i})
			continue
		}
		if o.Rejected {
			events = append(events, obsEvent{o.Arrival.Duration(), evReject, i})
			continue
		}
		events = append(events,
			obsEvent{o.Arrival.Duration(), evArrive, i},
			obsEvent{o.Started.Duration(), evStart, i},
			obsEvent{o.Finished.Duration(), evFinish, i},
		)
	}
	sort.SliceStable(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.kind != b.kind {
			return a.kind < b.kind
		}
		return res.Outcomes[a.idx].ID < res.Outcomes[b.idx].ID
	})

	depth := make(map[string]int, len(so.Models))
	depthAll := 0
	for _, ev := range events {
		o := res.Outcomes[ev.idx]
		switch ev.kind {
		case evArrive:
			recordOffered(rec, ev.at, o.Model)
			depth[o.Model]++
			depthAll++
			rec.Observe(ev.at, obs.DepthSeries(o.Model), float64(depth[o.Model]))
			rec.Observe(ev.at, obs.DepthSeries(obs.AllModels), float64(depthAll))
		case evReject, evShed:
			recordOffered(rec, ev.at, o.Model)
			recordTurnedAway(rec, ev.at, o.Model, o.Shed, objectives)
		case evStart:
			depth[o.Model]--
			depthAll--
		case evFinish:
			recordServed(rec, o, ev.at, objectives)
		}
	}
	rec.Flush()
	return so
}

// recordOffered counts one arrival under the shared series-name
// contract. This and the two record functions below are the single
// write path both harnesses feed the streaming recorder through.
func recordOffered(rec *obs.Recorder, at time.Duration, model string) {
	rec.Add(at, obs.OfferedSeries(model), 1)
	rec.Add(at, obs.OfferedSeries(obs.AllModels), 1)
}

// recordTurnedAway counts one shed or rejected arrival. Either way it
// burns every objective covering its model — shedding is honest about
// the traffic it sacrifices.
func recordTurnedAway(rec *obs.Recorder, at time.Duration, model string, wasShed bool, objectives []obs.Objective) {
	series := obs.RejectedSeries
	if wasShed {
		series = obs.ShedSeries
	}
	rec.Add(at, series(model), 1)
	rec.Add(at, series(obs.AllModels), 1)
	for _, obj := range objectives {
		if covered, _ := obj.Match(model, 0, true); covered {
			rec.Add(at, obs.BadSeries(obj), 1)
		}
	}
}

// recordServed records one completed request's latency, batching and
// Table-III stage anatomy, and scores it against the objectives.
func recordServed(rec *obs.Recorder, o Outcome, at time.Duration, objectives []obs.Objective) {
	latMS := ms(o.Latency())
	for _, m := range []string{o.Model, obs.AllModels} {
		rec.Add(at, obs.ServedSeries(m), 1)
		rec.Observe(at, obs.LatencySeries(m), latMS)
		rec.Observe(at, obs.BatchSeries(m), float64(o.BatchSize))
		rec.Observe(at, obs.BatchWaitSeries(m), ms(o.BatchWait()))
		rec.Observe(at, obs.DispatchWaitSeries(m), ms(o.DispatchWait()))
	}
	rec.Add(at, obs.StageSeries("pre"), ms(o.Pre))
	rec.Add(at, obs.StageSeries("framework"), ms(o.Framework()))
	rec.Add(at, obs.StageSeries("rpc"), ms(o.RPC))
	rec.Add(at, obs.StageSeries("infer"), ms(o.KernelExec()))
	rec.Add(at, obs.StageSeries("post"), ms(o.Post))
	for _, obj := range objectives {
		covered, breached := obj.Match(o.Model, o.Latency(), false)
		switch {
		case !covered:
		case breached:
			rec.Add(at, obs.BadSeries(obj), 1)
		default:
			rec.Add(at, obs.GoodSeries(obj), 1)
		}
	}
}

// Snapshot renders the end-of-run -watch dashboard: the exact text a
// live terminal dashboard would show at the moment the run drained.
func (so *SimObs) Snapshot() string {
	d := &obs.Dashboard{Rec: so.Recorder, Mon: so.Monitor, Models: so.Models}
	return d.Render(so.End)
}

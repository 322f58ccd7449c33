package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"aitax/internal/stats"
)

// WritePrometheus renders the registry in the Prometheus text
// exposition format: counters, then gauges, then histograms (with
// cumulative _bucket rows over the fixed bounds, _sum and _count), each
// histogram followed by exact p50/p90/p99 gauges suffixed _p50/_p90/
// _p99. Series are sorted by name, so output is byte-stable.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	bw := bufio.NewWriter(w)

	lastType := ""
	emitType := func(base, typ string) {
		if base != lastType {
			fmt.Fprintf(bw, "# TYPE %s %s\n", base, typ)
			lastType = base
		}
	}
	for _, k := range sortedKeysF(r.counters) {
		emitType(baseName(k), "counter")
		fmt.Fprintf(bw, "%s %s\n", k, formatFloat(r.counters[k]))
	}
	for _, k := range sortedKeysF(r.gauges) {
		emitType(baseName(k), "gauge")
		fmt.Fprintf(bw, "%s %s\n", k, formatFloat(r.gauges[k]))
	}
	for _, k := range sortedKeysH(r.hists) {
		h := r.hists[k]
		emitType(baseName(k), "histogram")
		bounds, counts := h.Buckets()
		cum := int64(0)
		for i, ub := range bounds {
			cum += counts[i]
			fmt.Fprintf(bw, "%s %d\n", spliceLabel(k, "_bucket", "le", formatFloat(ub)), cum)
		}
		cum += counts[len(bounds)]
		fmt.Fprintf(bw, "%s %d\n", spliceLabel(k, "_bucket", "le", "+Inf"), cum)
		fmt.Fprintf(bw, "%s %s\n", suffixed(k, "_sum"), formatFloat(h.Sum()))
		fmt.Fprintf(bw, "%s %d\n", suffixed(k, "_count"), h.Count())
		for _, q := range []struct {
			suffix string
			q      float64
		}{{"_p50", 0.5}, {"_p90", 0.9}, {"_p99", 0.99}} {
			fmt.Fprintf(bw, "%s %s\n", suffixed(k, q.suffix), formatFloat(h.quantile(q.q)))
		}
	}
	return bw.Flush()
}

// suffixed appends a suffix to a series' base name, preserving labels.
func suffixed(key, suffix string) string {
	base := baseName(key)
	return base + suffix + key[len(base):]
}

// HistogramJSON is a histogram's JSON export shape. The embedded
// summary's fields serialise in place, ahead of the bucket counts.
type HistogramJSON struct {
	stats.HistSummary
	Buckets map[string]int64 `json:"buckets"`
}

// RegistryJSON is the registry's JSON export shape.
type RegistryJSON struct {
	Counters   map[string]float64       `json:"counters"`
	Gauges     map[string]float64       `json:"gauges"`
	Histograms map[string]HistogramJSON `json:"histograms"`
}

// Snapshot returns the registry's JSON export shape (empty, non-nil
// maps on a nil registry).
func (r *Registry) Snapshot() RegistryJSON {
	out := RegistryJSON{
		Counters:   map[string]float64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramJSON{},
	}
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for k, v := range r.counters {
		out.Counters[k] = v
	}
	for k, v := range r.gauges {
		out.Gauges[k] = v
	}
	for k, h := range r.hists {
		bounds, counts := h.Buckets()
		hj := HistogramJSON{
			HistSummary: stats.HistSummary{
				Count: h.Count(),
				Sum:   h.Sum(),
				Min:   h.Min(),
				Max:   h.Max(),
				P50:   h.quantile(0.5),
				P90:   h.quantile(0.9),
				P99:   h.quantile(0.99),
			},
			Buckets: make(map[string]int64, len(counts)),
		}
		for i, ub := range bounds {
			hj.Buckets["le:"+formatFloat(ub)] = counts[i]
		}
		hj.Buckets["le:+Inf"] = counts[len(bounds)]
		out.Histograms[k] = hj
	}
	return out
}

// WriteJSON renders the registry as a single JSON document
// (encoding/json sorts map keys, so output is byte-stable).
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// spanJSONL is the JSONL export shape of one span.
type spanJSONL struct {
	ID        int64             `json:"id"`
	Parent    int64             `json:"parent,omitempty"`
	Name      string            `json:"name"`
	Component string            `json:"component"`
	Track     string            `json:"track"`
	StartNS   int64             `json:"start_ns"`
	DurNS     int64             `json:"dur_ns"`
	Attrs     map[string]string `json:"attrs,omitempty"`
}

// WriteSpansJSONL writes one JSON object per span, in span order — the
// machine-readable sink for external analysis pipelines.
func WriteSpansJSONL(w io.Writer, spans []Span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		row := spanJSONL{
			ID:        s.ID,
			Parent:    s.Parent,
			Name:      s.Name,
			Component: s.Component,
			Track:     s.Track.String(),
			StartNS:   s.Start.Nanoseconds(),
			DurNS:     int64(s.Duration()),
		}
		if len(s.Attrs) > 0 {
			row.Attrs = make(map[string]string, len(s.Attrs))
			for _, a := range s.Attrs {
				row.Attrs[a.Key] = a.Value
			}
		}
		if err := enc.Encode(row); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Bundle packages one measurement's telemetry for transport between
// layers (a lab job reports a Bundle; the lab merges them in submission
// order).
type Bundle struct {
	Spans    []Span
	Flows    []Flow
	Registry *Registry
}

// MergeBundles combines bundles in argument order into a fresh bundle.
// Span and flow IDs are re-based so they stay unique across the merge;
// registries merge deterministically (see Registry.Merge). Nil bundles
// are skipped.
func MergeBundles(bundles ...*Bundle) *Bundle {
	out := &Bundle{Registry: NewRegistry()}
	var spanOff, flowOff int64
	for _, b := range bundles {
		if b == nil {
			continue
		}
		var maxSpan, maxFlow int64
		for _, s := range b.Spans {
			s.ID += spanOff
			if s.Parent != 0 {
				s.Parent += spanOff
			}
			out.Spans = append(out.Spans, s)
			if s.ID > maxSpan {
				maxSpan = s.ID
			}
		}
		for _, f := range b.Flows {
			f.ID += flowOff
			f.From += spanOff
			f.To += spanOff
			out.Flows = append(out.Flows, f)
			if f.ID > maxFlow {
				maxFlow = f.ID
			}
		}
		spanOff, flowOff = maxSpan, maxFlow
		out.Registry.Merge(b.Registry)
	}
	return out
}

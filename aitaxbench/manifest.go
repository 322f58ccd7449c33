package main

import (
	"encoding/json"
	"io"
)

// runSeconds is the least time one run measures. Runs that need more
// operations for their tail percentile take longer: on a 2-CPU host the
// paper workload's 40 passes take about 26 s and the serve-http ladder
// about 43 s.
const runSeconds = 20

// workloadNames lists every workload a run accepts. The traced run
// covers them all.
var workloadNames = []string{"paper", "fleet", "serve-sim", "serve-http"}

// workloadDefs are the workloads BENCHMARK.json lists, and why each
// exists. serve-http is left out: its 100 req/s tail latency and its
// 800 req/s goodput spread by 0.15-0.31 (quartile distance over median)
// across runs on a 2-CPU host, above any bound the file may carry. It
// still runs with -workload serve-http and in every traced run.
var workloadDefs = []struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}{
	{"paper", "every paper experiment as lab jobs; ~75% of host time is capture/imaging frame fabrication, so frame work must show here"},
	{"fleet", "million-device fleet fold on a warm anatomy cache: sampler, fold and obs/stats merge, no imaging; must not move for frame work"},
	{"serve-sim", "brownout storm cycles through Simulate, BuildSimObs and the report: event engine, admission, qos and recorder work"},
}

// metricDef is one metric as BENCHMARK.json declares it. Per-layer
// metrics carry no bound.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists the metrics every untraced run reports. Each is
// defined per workload (see README.md): throughput counts experiments,
// devices, simulated requests or 200-responses per second, and the
// latencies time experiment jobs, fleet shards, simulation passes or
// HTTP requests.
//
// Every bound is 0.25: on a shared 2-CPU host, wall-clock figures of
// the same code drift by 10-15% over minutes.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_per_s", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_tail_ms", "ms", "lower", 0.25},
	{"heap_peak_mb", "MB", "lower", 0.25},
}

// perLayer lists the metrics every traced run reports.
var perLayer = func() []metricDef {
	var defs []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	add("ms", "lower", "capture.new_camera_ms")
	add("us", "lower", "imaging.synth_frame_us")
	add("ratio", "lower", "capture.new_camera_share.k1")
	add("us", "lower", "preproc.run_us", "postproc.decode_nms_us", "postproc.mask_flatten_us")
	add("1/s", "higher", "sim.events_per_s")
	add("ms", "lower", "app.init_ms")
	add("us", "lower", "app.frame_us")
	add("count", "lower", "app.events_per_frame")
	for _, d := range probeDelegates {
		add("us", "lower", "tflite.invoke_us."+d.name)
		add("count", "lower", "tflite.events_per_invoke."+d.name)
	}
	add("us", "lower", "fastrpc.call_us", "sched.exec_us")
	add("ns", "lower", "plan.get_warm_ns")
	add("ms", "lower", "plan.compile_ms")
	for _, id := range experimentIDs() {
		add("ms", "lower", "bench.exp_ms."+id)
	}
	add("ms", "lower", "lab.tail_job_ms")
	add("ratio", "higher", "lab.busy_share")
	add("ns", "lower", "fleet.sample_ns", "fleet.fold_ns")
	add("ms", "lower", "fleet.shard_ms_p50", "fleet.shard_ms_max")
	add("us", "lower", "fleet.merge_us")
	add("ms", "lower", "fleet.report_ms")
	add("count", "higher", "fleet.anatomy_hits")
	add("count", "lower", "fleet.anatomy_misses")
	add("ns", "lower", "obs.hist_observe_ns", "stats.regaccum_add_ns")
	add("ms", "lower", "serve.cost_table_ms", "serve.cost_entry_ms_max",
		"serve.measure_batch_ms.k1", "serve.measure_batch_ms.k4")
	add("ns", "lower", "serve.simulate_ns_per_req", "serve.simobs_ns_per_req")
	add("ms", "lower", "serve.report_ms")
	add("ns", "lower", "qos.tick_ns")
	add("ms", "lower", "loadgen.generate_ms",
		"http.gen_lag_ms_max", "http.queue_ms_p50.r100", "http.queue_ms_p50.r800")
	add("count", "higher", "serve.batch_size_mean.r100", "serve.batch_size_mean.r800")
	add("1/s", "higher", "serve.batches_per_s.r800")
	add("ratio", "lower", "http.reject_share.r800")
	add("ms", "lower", "http.p99_ms.r200")
	add("1/s", "higher", "http.goodput_rps.r800", "http.max_rps")
	add("ns", "lower", "telemetry.observe_ns", "obs.recorder_add_ns")
	add("ratio", "lower", "failed_share")
	for _, n := range workloadNames {
		add("ratio", "lower", "trace.overhead_share."+n)
	}
	return defs
}()

// writeManifest writes BENCHMARK.json from the tables above, so that
// the file and the runs cannot disagree:
//
//	go run ./aitaxbench -manifest > BENCHMARK.json
func writeManifest(w io.Writer) error {
	m := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  any         `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}{
		Command:    []string{"bash", "aitaxbench/run.sh"},
		Paths:      []string{"aitaxbench"},
		RunSeconds: runSeconds,
		Workloads:  workloadDefs,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// Command aitaxbench is the repository's benchmark. It measures host
// cost — the wall time the simulator spends producing virtual time and
// serving requests — never the simulated phone's latency, which is the
// system's output.
//
// One run measures one workload:
//
//	bash aitaxbench/run.sh --workload paper --seed 7 --seconds 20 --trace 0
//
// A run sets the workload up cold (in this process and in four child
// processes, reporting the median), checks the workload's outputs
// against the committed references, then repeats the workload's unit of
// work for at least --seconds. It prints a table of every figure on
// standard error and, as the last line of standard output, one JSON
// object with the end-to-end metrics (--trace 0) or the per-layer
// metrics (--trace 1) that BENCHMARK.json declares. The traced run
// records a span around every call the benchmark makes into the
// program, writes the spans to .bench_build/trace/, and derives the
// per-layer numbers from them and from timed probes of each layer.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"aitax/internal/models"
)

// setupChildren is how many extra processes time a cold set-up. Set-up
// warms process-wide caches, so a second cold sample needs a fresh
// process.
const setupChildren = 4

// workload is one set of inputs the benchmark runs.
type workload interface {
	// setUp does the cold work a user pays once before steady state.
	setUp(ctx context.Context, tr *tracer) error
	// check compares the workload's outputs with the references under
	// root, the repository root.
	check(ctx context.Context, root string) error
	// measure repeats the workload's unit of work for at least d. A full
	// (end-to-end) run also goes on until it has minOps operations, as
	// long as none has failed; a traced run's slices do not.
	measure(ctx context.Context, d time.Duration, full bool, tr *tracer) (*measurement, error)
	// minOps is the operation count an end-to-end run needs for its
	// tail percentile to have ten samples beyond it.
	minOps() int
	// layers derives the workload's per-layer metrics from a traced
	// measurement.
	layers(tr *tracer, out map[string]float64)
	close()
}

// measurement is what one timed phase produced.
type measurement struct {
	attempted, failed int
	// wrong counts outputs that failed a correctness check.
	wrong int
	// throughput is the workload's units of work per second.
	throughput float64
	// lat holds per-operation timings in ms.
	lat []float64
	// extra holds workload-specific figures for the stderr table.
	extra map[string]float64
	// heapPeak is the largest heap seen at the end of a pass, in bytes.
	heapPeak float64
	passes   int
}

// endPass records the heap a pass leaves, then collects garbage outside
// the timed part of the pass. Every pass then starts from the same
// heap, and a pass that allocates too little to trigger a collection
// still has its peak seen: without a collection, the heap only grows
// within the pass. The first pass still holds state from set-up and the
// output check, so its heap is not counted.
func (m *measurement) endPass() {
	if m.passes++; m.passes > 1 {
		m.heapPeak = max(m.heapPeak, readHeap())
	}
	runtime.GC()
}

func newWorkload(name string, seed uint64) (workload, error) {
	switch name {
	case "paper":
		return newPaper(seed), nil
	case "fleet":
		return newFleet(seed)
	case "serve-sim":
		return newServeSim(seed)
	case "serve-http":
		return newServeHTTP(seed)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// loadModels resolves Table-I model names.
func loadModels(names ...string) ([]*models.Model, error) {
	out := make([]*models.Model, len(names))
	for i, n := range names {
		m, err := models.ByName(n)
		if err != nil {
			return nil, err
		}
		out[i] = m
	}
	return out, nil
}

func knownWorkload(name string) bool {
	for _, n := range workloadNames {
		if n == name {
			return true
		}
	}
	return false
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("aitaxbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: paper | fleet | serve-sim | serve-http")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", runSeconds, "minimum measuring time")
	traced := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	manifest := fs.Bool("manifest", false, "print BENCHMARK.json and exit")
	setupOnly := fs.Bool("setup-only", false, "time one cold set-up of -workload, print its seconds and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *manifest {
		if err := writeManifest(stdout); err != nil {
			fmt.Fprintln(stderr, "aitaxbench:", err)
			return 1
		}
		return 0
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "aitaxbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	if !knownWorkload(*name) {
		fmt.Fprintf(stderr, "aitaxbench: unknown workload %q\n", *name)
		return 2
	}
	ctx := context.Background()
	d := time.Duration(*seconds) * time.Second
	var (
		out *output
		err error
	)
	switch {
	case *setupOnly:
		var s float64
		if s, err = timeSetUp(ctx, *name, *seed); err == nil {
			fmt.Fprintln(stdout, strconv.FormatFloat(s, 'g', -1, 64))
			return 0
		}
	case *traced == 1:
		out, err = runTraced(ctx, *name, *seed, d, stderr)
	default:
		out, err = runEndToEnd(ctx, *name, *seed, d, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "aitaxbench:", err)
		return 1
	}
	if err := out.write(stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "aitaxbench:", err)
		return 1
	}
	if !out.Correct {
		return 1
	}
	return 0
}

// timeSetUp times one cold set-up of a fresh workload.
func timeSetUp(ctx context.Context, name string, seed uint64) (float64, error) {
	w, err := newWorkload(name, seed)
	if err != nil {
		return 0, err
	}
	defer w.close()
	start := time.Now()
	if err := w.setUp(ctx, nil); err != nil {
		return 0, fmt.Errorf("%s set-up: %w", name, err)
	}
	return time.Since(start).Seconds(), nil
}

// childSetUp times a cold set-up in a fresh process.
func childSetUp(ctx context.Context, name string, seed uint64, stderr io.Writer) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.CommandContext(ctx, self, "-setup-only", "-workload", name,
		"-seed", strconv.FormatUint(seed, 10))
	cmd.Stderr = stderr
	b, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("set-up child: %w", err)
	}
	return strconv.ParseFloat(strings.TrimSpace(string(b)), 64)
}

// runEndToEnd is the untraced run: cold set-ups, output checks, then
// the timed phase.
func runEndToEnd(ctx context.Context, name string, seed uint64, d time.Duration, stderr io.Writer) (*output, error) {
	w, err := newWorkload(name, seed)
	if err != nil {
		return nil, err
	}
	defer w.close()
	start := time.Now()
	if err := w.setUp(ctx, nil); err != nil {
		return nil, fmt.Errorf("%s set-up: %w", name, err)
	}
	setups := []float64{time.Since(start).Seconds()}
	for i := 0; i < setupChildren; i++ {
		s, err := childSetUp(ctx, name, seed, stderr)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	out := newOutput(endToEnd)
	if err := w.check(ctx, "."); err != nil {
		out.fail(fmt.Errorf("%s output check: %w", name, err))
	}

	runtime.GC() // the timed phase starts without set-up's and the check's garbage
	m, err := w.measure(ctx, d, true, nil)
	if err != nil {
		return nil, err
	}
	out.account(m)
	q := tailQuantile(w.minOps())
	out.set("setup_s", median(setups))
	out.set("throughput_per_s", m.throughput)
	out.set("latency_p50_ms", quantile(m.lat, 0.5))
	out.set("latency_tail_ms", quantile(m.lat, q))
	out.set("heap_peak_mb", m.heapPeak/1e6)
	fmt.Fprintf(stderr, "%s seed %d: %d operations, latency tail at p%g; set-up samples %v s\n",
		name, seed, len(m.lat), 100*q, setups)
	for k, v := range m.extra {
		out.note(k, v)
	}
	return out, nil
}

// runTraced is the traced run. It covers every workload, because the
// per-layer ladder spans all of them, but gives the named workload
// half of the measuring time. Each workload runs an untraced slice and
// a traced slice; their throughput difference is the tracing overhead.
func runTraced(ctx context.Context, name string, seed uint64, d time.Duration, stderr io.Writer) (*output, error) {
	out := newOutput(perLayer)
	tr := newTracer()
	if err := traceWorkload(ctx, name, seed, d/4, tr, out); err != nil {
		return nil, err
	}
	for _, n := range workloadNames {
		if n == name {
			continue
		}
		if err := traceWorkload(ctx, n, seed, d/time.Duration(4*(len(workloadNames)-1)), tr, out); err != nil {
			return nil, err
		}
	}
	if err := probeLayers(ctx, tr, out.Metrics); err != nil {
		return nil, err
	}
	out.set("capture.new_camera_share.k1",
		out.Metrics["capture.new_camera_ms"]/out.Metrics["serve.measure_batch_ms.k1"])
	out.set("failed_share", float64(out.Failed)/float64(out.Attempted))
	path, err := writeSpans(tr, name, seed)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stderr, "%d spans written to %s\n", len(tr.spans), path)
	return out, nil
}

// traceWorkload sets a workload up under the tracer, checks it, warms
// it up for d/4, and measures it for d untraced and d traced.
func traceWorkload(ctx context.Context, name string, seed uint64, d time.Duration, tr *tracer, out *output) error {
	w, err := newWorkload(name, seed)
	if err != nil {
		return err
	}
	defer w.close()
	if err := w.setUp(ctx, tr); err != nil {
		return fmt.Errorf("%s set-up: %w", name, err)
	}
	if err := w.check(ctx, "."); err != nil {
		out.fail(fmt.Errorf("%s output check: %w", name, err))
	}
	runtime.GC()
	var runs [3]*measurement // warm-up, untraced, traced
	for i, slice := range []struct {
		d  time.Duration
		tr *tracer
	}{{d / 4, nil}, {d, nil}, {d, tr}} {
		if runs[i], err = w.measure(ctx, slice.d, false, slice.tr); err != nil {
			return err
		}
		out.account(runs[i])
	}
	untraced, traced := runs[1], runs[2]
	w.layers(tr, out.Metrics)
	out.set("trace.overhead_share."+name, 1-traced.throughput/untraced.throughput)
	return nil
}

// writeSpans writes every span, with its self time, as JSON lines.
func writeSpans(tr *tracer, name string, seed uint64) (string, error) {
	dir := filepath.Join(".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%d.jsonl", name, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	setSelfTimes(tr.spans)
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// output is one run's result line.
type output struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"-"`
	defs      []metricDef
	errs      []error
	notes     map[string]float64
}

func newOutput(defs []metricDef) *output {
	return &output{Correct: true, Metrics: map[string]float64{}, defs: defs, notes: map[string]float64{}}
}

func (o *output) set(name string, v float64)  { o.Metrics[name] = v }
func (o *output) note(name string, v float64) { o.notes[name] = v }

func (o *output) fail(err error) {
	o.Correct = false
	o.errs = append(o.errs, err)
}

func (o *output) account(m *measurement) {
	o.Attempted += m.attempted
	o.Failed += m.failed
	if m.wrong > 0 {
		o.fail(fmt.Errorf("%d outputs differ from the reference", m.wrong))
	}
}

// write prints the stderr table and the JSON result line. Every metric
// the definitions list must be present and finite.
func (o *output) write(stdout, stderr io.Writer) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	vals := make(map[string]value, len(o.defs))
	for _, d := range o.defs {
		v, ok := o.Metrics[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s not measured (%v)", d.Name, v)
		}
		vals[d.Name] = value{v, d.Unit}
		fmt.Fprintf(stderr, "  %-34s %14.6g %s\n", d.Name, v, d.Unit)
	}
	keys := make([]string, 0, len(o.notes))
	for k := range o.notes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(stderr, "  %-34s %14.6g\n", k, o.notes[k])
	}
	for _, err := range o.errs {
		fmt.Fprintln(stderr, "CHECK FAILED:", err)
	}
	line, err := json.Marshal(struct {
		*output
		Metrics map[string]value `json:"metrics"`
	}{o, vals})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// readHeap returns the heap occupied by objects, live or not yet swept.
func readHeap() float64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

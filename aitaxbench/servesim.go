package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"aitax"
	"aitax/internal/app"
	"aitax/internal/lab"
	"aitax/internal/loadgen"
	"aitax/internal/obs"
	"aitax/internal/qos"
	"aitax/internal/serve"
	"aitax/internal/tensor"
	"aitax/internal/tflite"
)

// The brownout policy of `make brownout-demo`.
const (
	brownoutModels    = "MobileNet 1.0 v1,EfficientNet-Lite0"
	brownoutSLO       = "EfficientNet-Lite0=350ms@95"
	brownoutLadder    = "tick=5ms,hold=6,short=2,long=4,enter=0.1/0.2/0.3,exit=0.04/0.08/0.15"
	brownoutDownshift = "EfficientNet-Lite0=MobileNet 1.0 v1"
	brownoutMix       = "EfficientNet-Lite0=2,EfficientNet-Lite0=2:best-effort,EfficientNet-Lite0=1:interactive"
	brownoutDepth     = 64
	// brownoutSeed is the demo's seed. The workload keeps it as the
	// serving config's executor seed, fixed like the rest of the config,
	// and generates its arrivals from the workload seed.
	brownoutSeed = 11
	// brownoutStorm is the pinned storm of the committed golden.
	brownoutStorm = "300x300ms,4x3s"
)

// stormCycle is one calm/storm cycle of the workload's ramp: the storm
// drives the ladder to L3 and the calm second lets it recover to L0.
// A pass of 300 cycles offers about 3×10^4 arrivals and takes under
// half a second on a 2-CPU host, so a 20 s run holds the 40 passes its
// p75 needs and simulates over 10^6 arrivals.
const (
	stormCycle  = "300x300ms,10x1s"
	stormCycles = 300
)

// serveSimWL is the serve-sim workload: the virtual-time serving
// simulator under the brownout policy, fed a ramp that repeats
// calm/storm cycles.
type serveSimWL struct {
	cfg      serve.Config
	arrivals []loadgen.Arrival
	genTime  time.Duration
	table    *serve.CostTable
	digest   [32]byte
}

func newServeSim(seed uint64) (*serveSimWL, error) {
	cfg, err := brownoutConfig()
	if err != nil {
		return nil, err
	}
	cycle, err := loadgen.ParseRamp(stormCycle)
	if err != nil {
		return nil, err
	}
	var phases []loadgen.Phase
	for i := 0; i < stormCycles; i++ {
		phases = append(phases, cycle...)
	}
	start := time.Now()
	arrivals, err := brownoutArrivals(seed, phases)
	return &serveSimWL{cfg: cfg, arrivals: arrivals, genTime: time.Since(start)}, err
}

// brownoutConfig is the serving config of `make brownout-demo`.
func brownoutConfig() (serve.Config, error) {
	p, err := aitax.PlatformByName("Google Pixel 3")
	if err != nil {
		return serve.Config{}, err
	}
	loaded, err := loadModels(strings.Split(brownoutModels, ",")...)
	if err != nil {
		return serve.Config{}, err
	}
	slo, err := obs.ParseObjectives(brownoutSLO)
	if err != nil {
		return serve.Config{}, err
	}
	lad, err := qos.ParseLadder(brownoutLadder)
	if err != nil {
		return serve.Config{}, err
	}
	down, err := serve.ParseDownshift(brownoutDownshift)
	if err != nil {
		return serve.Config{}, err
	}
	cfg := serve.Config{
		Platform: p, DType: tensor.Float32, Delegate: tflite.DelegateNNAPI,
		Models: loaded, Entry: app.StagePre, Workers: 2,
		BatchWindow: 2 * time.Millisecond, MaxBatch: 4, QueueDepth: brownoutDepth,
		DispatchCost: 200 * time.Microsecond, Seed: brownoutSeed, SLO: slo,
		QoS: &serve.QoSPolicy{Ladder: lad, Downshift: down, SteerDelegate: tflite.DelegateGPU},
	}.Defaults()
	return cfg, cfg.Validate()
}

func brownoutArrivals(seed uint64, phases []loadgen.Phase) ([]loadgen.Arrival, error) {
	mix, err := loadgen.ParseMix(brownoutMix)
	if err != nil {
		return nil, err
	}
	return loadgen.Spec{Seed: seed, Phases: phases, Mix: mix}.Generate()
}

// simPass runs one simulation and renders the report exactly as
// `aitax-serve -loadgen` prints it.
func simPass(cfg serve.Config, table *serve.CostTable, arrivals []loadgen.Arrival, ramp string, tr *tracer) (string, error) {
	pass := tr.begin("serve.pass", 0)
	defer tr.end(pass)
	s := tr.begin("serve.simulate", pass.id())
	res, err := serve.Simulate(cfg, table, arrivals, false)
	tr.end(s)
	if err != nil {
		return "", err
	}
	s = tr.begin("serve.simobs", pass.id())
	so := serve.BuildSimObs(cfg, res, cfg.ObsWindow, cfg.SLO)
	tr.end(s)
	s = tr.begin("serve.report", pass.id())
	defer tr.end(s)
	names := make([]string, len(cfg.Models))
	for i, m := range cfg.Models {
		names[i] = m.Name
	}
	var b strings.Builder
	fmt.Fprintf(&b, "platform: %s (%s) | delegate %s | dtype %s | seed %d\n",
		cfg.Platform.Name, cfg.Platform.Chipset, cfg.Delegate, cfg.DType, cfg.Seed)
	fmt.Fprintf(&b, "models: %s\n", strings.Join(names, ", "))
	b.WriteString(res.Report(cfg, ramp))
	so.Monitor.WriteReport(&b)
	return b.String(), nil
}

func (w *serveSimWL) ramp() string { return fmt.Sprintf("%dx(%s)", stormCycles, stormCycle) }

// setUp builds the cost table: every (model, batch size) priced by a
// full simulated-stack measurement, on lab parallelism 2.
func (w *serveSimWL) setUp(ctx context.Context, tr *tracer) error {
	s := tr.begin("serve.cost_table", 0)
	defer tr.end(s)
	var err error
	w.table, err = serve.BuildCostTable(ctx, w.cfg, labParallel, func(r lab.JobResult) {
		now := time.Now()
		tr.add("serve.cost_entry", s.id(), now.Add(-r.Wall), now)
	})
	return err
}

// check compares the pinned storm with the brownout golden, and a pass
// priced by a cost table built at parallelism 1 with one built at 2.
func (w *serveSimWL) check(ctx context.Context, root string) error {
	ref, err := os.ReadFile(filepath.Join(root, "cmd", "aitax-serve", "testdata", "brownout_report.golden"))
	if err != nil {
		return err
	}
	phases, err := loadgen.ParseRamp(brownoutStorm)
	if err != nil {
		return err
	}
	storm, err := brownoutArrivals(brownoutSeed, phases)
	if err != nil {
		return err
	}
	got, err := simPass(w.cfg, w.table, storm, brownoutStorm, nil)
	if err != nil {
		return err
	}
	if err := sameText("brownout_report.golden", string(ref), got); err != nil {
		return err
	}

	out, err := simPass(w.cfg, w.table, w.arrivals, w.ramp(), nil)
	if err != nil {
		return err
	}
	w.digest = sha256.Sum256([]byte(out))
	table1, err := serve.BuildCostTable(ctx, w.cfg, 1, nil)
	if err != nil {
		return err
	}
	out1, err := simPass(w.cfg, table1, w.arrivals, w.ramp(), nil)
	if err != nil {
		return err
	}
	if sha256.Sum256([]byte(out1)) != w.digest {
		return fmt.Errorf("report from a parallelism-1 cost table differs from parallelism %d", labParallel)
	}
	return nil
}

// minOps: 40 passes support a p75 tail.
func (w *serveSimWL) minOps() int { return 40 }

// measure repeats passes over the same arrivals. An operation is one
// pass; throughput counts arrivals.
func (w *serveSimWL) measure(ctx context.Context, d time.Duration, full bool, tr *tracer) (*measurement, error) {
	m := &measurement{}
	var rates []float64
	start := time.Now()
	for time.Since(start) < d || (full && len(m.lat) < w.minOps() && m.failed == 0) {
		t0 := time.Now()
		out, err := simPass(w.cfg, w.table, w.arrivals, w.ramp(), tr)
		wall := time.Since(t0)
		m.endPass()
		m.attempted++
		if err != nil {
			m.failed++
			continue
		}
		m.lat = append(m.lat, ms(wall))
		rates = append(rates, float64(len(w.arrivals))/wall.Seconds())
		if w.digest != ([32]byte{}) && sha256.Sum256([]byte(out)) != w.digest {
			m.wrong++
		}
	}
	m.throughput = median(rates)
	return m, nil
}

func (w *serveSimWL) layers(tr *tracer, out map[string]float64) {
	n := float64(len(w.arrivals))
	out["serve.simulate_ns_per_req"] = 1e6 * median(tr.named("serve.simulate")) / n
	out["serve.simobs_ns_per_req"] = 1e6 * median(tr.named("serve.simobs")) / n
	out["serve.report_ms"] = median(tr.named("serve.report"))
	out["serve.cost_table_ms"] = median(tr.named("serve.cost_table"))
	out["serve.cost_entry_ms_max"] = quantile(tr.named("serve.cost_entry"), 1)
	out["loadgen.generate_ms"] = ms(w.genTime)
}

func (w *serveSimWL) close() {}

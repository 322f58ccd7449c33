package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"aitax/internal/fleet"
	"aitax/internal/lab"
	"aitax/internal/plan"
	"aitax/internal/soc"
	"aitax/internal/tensor"
	"aitax/internal/tflite"
)

const (
	// fleetDevices is one pass's fleet size.
	fleetDevices = 2_000_000
	// fleetShards is the aitax-fleet default.
	fleetShards = 32
	// fleetCheckDevices is the size the committed golden was recorded at.
	fleetCheckDevices = 2000
)

// fleetModels is the aitax-fleet default application mix.
var fleetModels = []string{"MobileNet 1.0 v1", "SSD MobileNet v2", "EfficientNet-Lite0"}

// fleetWL is the fleet workload: fleet.Run with the aitax-fleet
// defaults (int8, NNAPI, soc.DefaultCatalog) over two million devices,
// on one anatomy cache that set-up fills.
type fleetWL struct {
	cfg    fleet.Config
	digest [32]byte
	last   *fleet.Result
}

func newFleet(seed uint64) (*fleetWL, error) {
	cfg, err := fleetConfig(seed, fleetDevices)
	if err != nil {
		return nil, err
	}
	return &fleetWL{cfg: cfg}, nil
}

func fleetConfig(seed uint64, devices int) (fleet.Config, error) {
	mix, err := loadModels(fleetModels...)
	if err != nil {
		return fleet.Config{}, err
	}
	return fleet.Config{
		Catalog: soc.DefaultCatalog(), Devices: devices, Shards: fleetShards,
		Models: mix, DType: tensor.UInt8, Delegate: tflite.DelegateNNAPI,
		Seed: seed, Parallel: labParallel, Plans: plan.New(),
	}, nil
}

// fleetPass runs the fleet once and renders its report. Each shard's
// lab result feeds onShard.
func fleetPass(ctx context.Context, cfg fleet.Config, onShard func(lab.JobResult)) (*fleet.Result, [32]byte, error) {
	cfg.OnProgress = onShard
	res, err := fleet.Run(ctx, cfg)
	if err != nil {
		return nil, [32]byte{}, err
	}
	h := sha256.New()
	if err := fleet.WriteReport(h, res); err != nil {
		return nil, [32]byte{}, err
	}
	var sum [32]byte
	h.Sum(sum[:0])
	return res, sum, nil
}

// setUp is the first fleet.Run on a fresh anatomy cache: it measures
// every (catalog entry, model) anatomy.
func (w *fleetWL) setUp(ctx context.Context, tr *tracer) error {
	s := tr.begin("fleet.setup", 0)
	defer tr.end(s)
	res, sum, err := fleetPass(ctx, w.cfg, nil)
	w.digest, w.last = sum, res
	return err
}

// check compares a 2000-device seed-42 run with the aitax-fleet golden
// and a parallelism-1 pass with the set-up pass.
func (w *fleetWL) check(ctx context.Context, root string) error {
	ref, err := os.ReadFile(filepath.Join(root, "cmd", "aitax-fleet", "testdata", "fleet_report.golden"))
	if err != nil {
		return err
	}
	cfg, err := fleetConfig(42, fleetCheckDevices)
	if err != nil {
		return err
	}
	res, err := fleet.Run(ctx, cfg)
	if err != nil {
		return err
	}
	var b strings.Builder
	if err := fleet.WriteReport(&b, res); err != nil {
		return err
	}
	if err := sameText("fleet_report.golden", string(ref), b.String()); err != nil {
		return err
	}
	cfg = w.cfg
	cfg.Parallel = 1
	_, sum, err := fleetPass(ctx, cfg, nil)
	if err != nil {
		return err
	}
	if sum != w.digest {
		return fmt.Errorf("seed %d: report at parallelism 1 differs from parallelism %d", w.cfg.Seed, labParallel)
	}
	return nil
}

// minOps: 10 passes of 32 shards support a p95 tail. A run usually
// holds more, but the tail percentile stays fixed so runs compare.
func (w *fleetWL) minOps() int { return 10 * fleetShards }

// measure repeats warm passes. An operation is one shard; its latency
// is the shard's wall time.
func (w *fleetWL) measure(ctx context.Context, d time.Duration, full bool, tr *tracer) (*measurement, error) {
	m := &measurement{}
	var rates []float64
	start := time.Now()
	for time.Since(start) < d || (full && len(m.lat) < w.minOps() && m.failed == 0) {
		t0 := time.Now()
		pass := tr.begin("fleet.pass", 0)
		var shards []float64
		res, sum, err := fleetPass(ctx, w.cfg, func(r lab.JobResult) {
			shards = append(shards, ms(r.Wall))
			now := time.Now()
			tr.add("fleet.shard", pass.id(), now.Add(-r.Wall), now)
		})
		tr.end(pass)
		wall := time.Since(t0)
		m.endPass()
		m.attempted += fleetShards
		if err != nil {
			m.failed += fleetShards
			continue
		}
		m.lat = append(m.lat, shards...)
		rates = append(rates, float64(res.Devices)/wall.Seconds())
		w.last = res
		if sum != w.digest {
			m.wrong++
		}
	}
	m.throughput = median(rates)
	return m, nil
}

// layers reports shard times from the trace, the anatomy cache's
// counters, and times merging and reporting the last pass's shards.
func (w *fleetWL) layers(tr *tracer, out map[string]float64) {
	shards := tr.named("fleet.shard")
	out["fleet.shard_ms_p50"] = median(shards)
	out["fleet.shard_ms_max"] = quantile(shards, 1)
	hits, misses, _ := w.cfg.Plans.Stats()
	out["fleet.anatomy_hits"] = float64(hits)
	out["fleet.anatomy_misses"] = float64(misses)
	res := w.last
	acc := fleet.NewShardAgg()
	out["fleet.merge_us"] = 1e-3 * timeOp(tr, "fleet.merge", 20, len(res.PerShard), func(i int) {
		acc.Merge(res.PerShard[i])
	})
	out["fleet.report_ms"] = 1e-6 * timeOp(tr, "fleet.report", 20, 1, func(int) {
		fleet.WriteReport(io.Discard, res)
	})
}

func (w *fleetWL) close() {}

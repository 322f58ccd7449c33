package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"aitax/internal/app"
	"aitax/internal/capture"
	"aitax/internal/fastrpc"
	"aitax/internal/fleet"
	"aitax/internal/imaging"
	"aitax/internal/models"
	"aitax/internal/obs"
	"aitax/internal/plan"
	"aitax/internal/postproc"
	"aitax/internal/preproc"
	"aitax/internal/qos"
	"aitax/internal/sched"
	"aitax/internal/serve"
	"aitax/internal/sim"
	"aitax/internal/soc"
	"aitax/internal/stats"
	"aitax/internal/telemetry"
	"aitax/internal/tensor"
	"aitax/internal/tflite"
)

// timeOp calls fn(0..n-1) in each of rounds rounds and returns the
// median time per call in ns. With a tracer, each round is a span.
func timeOp(tr *tracer, name string, rounds, n int, fn func(i int)) float64 {
	per := make([]float64, rounds)
	for r := range per {
		s := tr.begin("probe."+name, 0)
		start := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		per[r] = float64(time.Since(start)) / float64(n)
		tr.end(s)
	}
	return median(per)
}

// drain runs eng until it is idle and returns the events it processed.
func drain(eng *sim.Engine) int {
	n := 0
	for eng.Step() {
		n++
	}
	return n
}

// probeDelegates are the delegates the tflite Invoke probe covers.
var probeDelegates = []struct {
	name string
	d    tflite.Delegate
}{{"cpu", tflite.DelegateCPU}, {"nnapi", tflite.DelegateNNAPI}, {"hexagon", tflite.DelegateHexagon}}

// probeLayers times calls into each layer's public functions at the
// workloads' input sizes: 480×360 camera frames, 224×224 MobileNet
// inputs, the SSD and DeepLab output tensors, the fleet's catalog.
func probeLayers(ctx context.Context, tr *tracer, out map[string]float64) error {
	zoo, err := loadModels("MobileNet 1.0 v1", "SSD MobileNet v2", "Deeplab-v3 MobileNet-v2")
	if err != nil {
		return err
	}
	mobilenet, ssd, deeplab := zoo[0], zoo[1], zoo[2]
	pixel3 := soc.Pixel3()
	rng := sim.NewRNG(1)

	// capture, imaging: the harness tax.
	out["capture.new_camera_ms"] = 1e-6 * timeOp(tr, "capture.new_camera", 7, 1, func(int) {
		capture.NewCamera(sim.NewEngine(), rng, capture.DefaultPreviewW, capture.DefaultPreviewH)
	})
	yuv := imaging.NewYUV(capture.DefaultPreviewW, capture.DefaultPreviewH)
	out["imaging.synth_frame_us"] = 1e-3 * timeOp(tr, "imaging.synth_frame", 7, 8, func(i int) {
		imaging.SyntheticFrameInto(yuv, uint64(i))
	})

	// preproc, postproc.
	scene := imaging.SyntheticScene(capture.DefaultPreviewW, capture.DefaultPreviewH, 1)
	var sc preproc.RunScratch
	out["preproc.run_us"] = 1e-3 * timeOp(tr, "preproc.run", 7, 16, func(int) {
		mobilenet.Pre.RunInto(&sc, scene)
	})
	so := tflite.FabricateOutputs(ssd, tensor.Float32, rng)
	anchors := postproc.DefaultAnchors(26)[:1917]
	var boxes, kept, nmsScratch []postproc.Box
	out["postproc.decode_nms_us"] = 1e-3 * timeOp(tr, "postproc.decode_nms", 7, 16, func(int) {
		boxes = postproc.DecodeBoxesInto(boxes[:0], so[0], so[1], anchors, 0.5)
		kept = postproc.NMSInto(kept[:0], &nmsScratch, boxes, 0.5, 10)
	})
	do := tflite.FabricateOutputs(deeplab, tensor.Float32, rng)
	var mask []int
	out["postproc.mask_flatten_us"] = 1e-3 * timeOp(tr, "postproc.mask_flatten", 7, 4, func(int) {
		mask = postproc.FlattenMaskInto(mask[:0], do[0])
	})

	// sim: schedule a burst of events and step through them.
	const burst = 10000
	eng := sim.NewEngine()
	noop := func() {}
	perBurst := timeOp(tr, "sim.schedule_step", 7, 1, func(int) {
		for i := 0; i < burst; i++ {
			eng.After(time.Duration(i%97)*time.Microsecond, noop)
		}
		drain(eng)
	})
	out["sim.events_per_s"] = burst / (perBurst * 1e-9)

	// app, tflite, fastrpc, sched, plan.
	appCfg := app.Config{Model: mobilenet, DType: tensor.UInt8, Delegate: tflite.DelegateNNAPI, RealPostprocess: true}
	var initErr error
	out["app.init_ms"] = 1e-6 * timeOp(tr, "app.init", 5, 1, func(int) {
		rt := tflite.NewStack(pixel3, 1)
		a, err := app.New(rt, appCfg)
		if err != nil {
			initErr = err
			return
		}
		a.Init(nil)
		rt.Eng.Run()
	})
	if initErr != nil {
		return initErr
	}
	rt := tflite.NewStack(pixel3, 1)
	a, err := app.New(rt, appCfg)
	if err != nil {
		return err
	}
	a.Camera().Synthesize = false // frames come from the camera's pool
	a.Init(nil)
	drain(rt.Eng)
	events := 0
	out["app.frame_us"] = 1e-3 * timeOp(tr, "app.frame", 7, 16, func(int) {
		a.ProcessFrame(nil)
		events += drain(rt.Eng)
	})
	out["app.events_per_frame"] = float64(events) / (7 * 16)
	for _, d := range probeDelegates {
		rt := tflite.NewStack(pixel3, 1)
		ip, err := rt.NewInterpreter(mobilenet, tensor.UInt8, tflite.Options{Delegate: d.d})
		if err != nil {
			return fmt.Errorf("tflite %s: %w", d.name, err)
		}
		ip.Init(nil)
		drain(rt.Eng)
		events := 0
		out["tflite.invoke_us."+d.name] = 1e-3 * timeOp(tr, "tflite.invoke."+d.name, 7, 8, func(int) {
			ip.Invoke(nil)
			events += drain(rt.Eng)
		})
		out["tflite.events_per_invoke."+d.name] = float64(events) / (7 * 8)
	}
	eng = sim.NewEngine()
	ch := fastrpc.NewChannel(eng, pixel3.RPC, sim.NewResource(eng, "dsp", 1))
	payload := int64(mobilenet.InputW * mobilenet.InputH * 3)
	ch.Invoke(payload, time.Millisecond, nil) // the cold call pays session set-up
	drain(eng)
	out["fastrpc.call_us"] = 1e-3 * timeOp(tr, "fastrpc.call", 7, 64, func(int) {
		ch.Invoke(payload, time.Millisecond, nil)
		drain(eng)
	})
	eng = sim.NewEngine()
	th := sched.New(eng, sched.DefaultConfig()).Spawn("probe", nil)
	out["sched.exec_us"] = 1e-3 * timeOp(tr, "sched.exec", 7, 64, func(int) {
		th.Exec(time.Millisecond, nil)
		drain(eng)
	})
	cache := plan.New()
	key := plan.Key{Kind: "probe", Model: mobilenet.Name}
	build := func() any { return 1 }
	cache.Get(key, build)
	out["plan.get_warm_ns"] = timeOp(tr, "plan.get_warm", 7, 4096, func(int) { cache.Get(key, build) })
	// Compiling one model's Table-I dtype × delegate grid on a fresh cache.
	var compile []float64
	for i := 0; i < 5; i++ {
		c := plan.New()
		rep := c.Prewarm(tflite.PrewarmJobs(c, []*soc.SoC{pixel3}, []*models.Model{mobilenet},
			tflite.GridDTypes, tflite.AllDelegates))
		compile = append(compile, ms(rep.Compile))
	}
	out["plan.compile_ms"] = median(compile)

	// fleet, obs, stats.
	sampler, err := fleet.NewSampler(soc.DefaultCatalog(), 42, len(fleetModels))
	if err != nil {
		return err
	}
	devs := make([]fleet.Device, 4096)
	out["fleet.sample_ns"] = timeOp(tr, "fleet.sample", 7, len(devs), func(i int) { devs[i] = sampler.Device(i) })
	an, err := probeAnatomy(mobilenet, pixel3)
	if err != nil {
		return err
	}
	agg := fleet.NewTierAgg()
	out["fleet.fold_ns"] = timeOp(tr, "fleet.fold", 7, len(devs), func(i int) { agg.Fold(devs[i], an) })
	h := obs.NewHistogram(obs.DefaultBounds)
	out["obs.hist_observe_ns"] = timeOp(tr, "obs.hist_observe", 7, 4096, func(i int) { h.Observe(float64(i%977) * 0.37) })
	reg := stats.NewRegAccum(1e4, 1e2)
	out["stats.regaccum_add_ns"] = timeOp(tr, "stats.regaccum_add", 7, 4096, func(i int) {
		reg.Add(1+float64(i%89)*0.01, 20+float64(i%61)*0.1)
	})

	// serve, qos, telemetry, obs recorder.
	httpWL, err := newServeHTTP(1)
	if err != nil {
		return err
	}
	for _, k := range []int{1, 4} {
		var batchErr error
		out[fmt.Sprintf("serve.measure_batch_ms.k%d", k)] = 1e-6 * timeOp(tr, fmt.Sprintf("serve.measure_batch.k%d", k), 7, 1, func(int) {
			if _, err := serve.MeasureBatch(ctx, httpWL.cfg, mobilenet, k); err != nil {
				batchErr = err
			}
		})
		if batchErr != nil {
			return batchErr
		}
	}
	lad, err := qos.ParseLadder(brownoutLadder)
	if err != nil {
		return err
	}
	ctl, err := qos.NewController(lad)
	if err != nil {
		return err
	}
	out["qos.tick_ns"] = timeOp(tr, "qos.tick", 7, 4096, func(i int) {
		ctl.TickAt(time.Duration(i)*5*time.Millisecond, qos.Signals{QueueFrac: float64(i%100) / 100, HeadroomC: math.Inf(1)})
	})
	treg := telemetry.NewStreamingRegistry()
	out["telemetry.observe_ns"] = timeOp(tr, "telemetry.observe", 7, 4096, func(i int) {
		treg.Observe("aitax_probe_ms", float64(i%977)*0.37)
	})
	rec := obs.NewRecorder(obs.RecorderConfig{})
	series := obs.OfferedSeries(obs.AllModels)
	out["obs.recorder_add_ns"] = timeOp(tr, "obs.recorder_add", 7, 4096, func(i int) {
		rec.Add(time.Duration(i)*time.Millisecond, series, 1)
	})
	return nil
}

// probeAnatomy builds a fleet anatomy the way the fleet measures one:
// steady frames of the instrumented app after two warm-up frames.
func probeAnatomy(m *models.Model, p *soc.SoC) (*fleet.Anatomy, error) {
	rt := tflite.NewStack(p, 1)
	a, err := app.New(rt, app.Config{Model: m, DType: tensor.UInt8, Delegate: tflite.DelegateNNAPI})
	if err != nil {
		return nil, err
	}
	an := &fleet.Anatomy{Accel: true}
	var frames []app.FrameStats
	a.Init(func() {
		a.Run(2+len(an.Frames), func(fs []app.FrameStats) { frames = fs })
	})
	rt.Eng.Run()
	if len(frames) < 2+len(an.Frames) {
		return nil, fmt.Errorf("anatomy probe: %d frames", len(frames))
	}
	for i := range an.Frames {
		an.Frames[i] = frames[2+i]
		an.RPC[i] = frames[2+i].Inference / 10
	}
	return an, nil
}

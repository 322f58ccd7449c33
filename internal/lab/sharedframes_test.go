package lab

import (
	"context"
	"fmt"
	"hash/fnv"
	"testing"

	"aitax/internal/app"
	"aitax/internal/capture"
	"aitax/internal/imaging"
	"aitax/internal/models"
	"aitax/internal/soc"
	"aitax/internal/tensor"
	"aitax/internal/tflite"
)

func frameHash(img *imaging.YUVImage) uint64 {
	h := fnv.New64a()
	h.Write(img.Y)
	h.Write(img.VU)
	return h.Sum64()
}

// sharedFramesRun is what one job saw: its camera's pool frames (by
// sequence slot) and their hashes before and after the app ran.
type sharedFramesRun struct {
	frames        [4]*imaging.YUVImage
	before, after [4]uint64
}

// Pool-mode cameras in concurrently running apps share one read-only
// set of preview frames per size. Lab workers build apps and run real
// pre-processing over those frames at the same time. Under -race the
// detector checks the pool's own sharing (the size map and sync.Pool);
// the pixel kernels synchronize through the shared tile pool, so a
// stray write to a frame is caught by the hashes (each equal before and
// after the run and to a fresh synthesis) rather than reported as a race.
func TestSharedPreviewFramesStayReadOnlyAcrossWorkers(t *testing.T) {
	m, err := models.ByName("MobileNet 1.0 v1")
	if err != nil {
		t.Fatal(err)
	}
	sizes := [][2]int{{capture.DefaultPreviewW, capture.DefaultPreviewH}, {320, 240}}
	const jobsPerSize, frames = 6, 6
	var jobs []Job
	for i := 0; i < jobsPerSize*len(sizes); i++ {
		i, sz := i, sizes[i%len(sizes)]
		jobs = append(jobs, Job{ID: fmt.Sprintf("app%02d", i), Run: func(context.Context) (any, error) {
			rt := tflite.NewStack(soc.Pixel3(), uint64(i))
			a, err := app.New(rt, app.Config{Model: m, DType: tensor.UInt8,
				Delegate: tflite.DelegateCPU, RealPreprocess: true})
			if err != nil {
				return nil, err
			}
			if sz[0] != capture.DefaultPreviewW {
				a.SetCamera(capture.NewCamera(rt.Eng, rt.RNG, sz[0], sz[1]))
			}
			var r sharedFramesRun
			for range r.frames {
				a.Camera().Capture(func(f *capture.Frame) { r.frames[f.Seq%len(r.frames)] = f.Image })
			}
			rt.Eng.Run()
			for k, img := range r.frames {
				r.before[k] = frameHash(img)
			}
			ran := 0
			a.Init(func() { a.Run(frames, func(st []app.FrameStats) { ran = len(st) }) })
			rt.Eng.Run()
			if ran != frames {
				return nil, fmt.Errorf("ran %d of %d frames", ran, frames)
			}
			for k, img := range r.frames {
				r.after[k] = frameHash(img)
			}
			return r, nil
		}})
	}
	results := (&Lab{Parallelism: 4}).Run(context.Background(), jobs)

	fresh := map[[2]int][4]uint64{}
	for _, sz := range sizes {
		var hs [4]uint64
		for k := range hs {
			hs[k] = frameHash(imaging.SyntheticFrame(sz[0], sz[1], uint64(1000+k)))
		}
		fresh[sz] = hs
	}
	users := map[*imaging.YUVImage]int{}
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("%s: %v", res.ID, res.Err)
		}
		r, want := res.Value.(sharedFramesRun), fresh[sizes[i%len(sizes)]]
		for k, img := range r.frames {
			users[img]++
			if r.before[k] != want[k] || r.after[k] != want[k] {
				t.Fatalf("%s: frame seed %d hash before %x after %x, fresh %x",
					res.ID, 1000+k, r.before[k], r.after[k], want[k])
			}
		}
	}
	shared := 0
	for _, n := range users {
		if n > 1 {
			shared++
		}
	}
	if shared == 0 {
		t.Fatalf("no preview frame was shared between the %d apps", len(jobs))
	}
	t.Logf("%d distinct preview frames across %d apps, %d shared", len(users), len(jobs), shared)
}

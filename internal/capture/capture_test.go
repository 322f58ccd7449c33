package capture

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"aitax/internal/imaging"
	"aitax/internal/sim"
)

func newCam() (*sim.Engine, *Camera) {
	eng := sim.NewEngine()
	return eng, NewCamera(eng, sim.NewRNG(7), DefaultPreviewW, DefaultPreviewH)
}

func TestCaptureDeliversFrame(t *testing.T) {
	eng, cam := newCam()
	var f *Frame
	cam.Capture(func(fr *Frame) { f = fr })
	eng.Run()
	if f == nil {
		t.Fatal("no frame delivered")
	}
	if f.Image.Width != DefaultPreviewW || f.Image.Height != DefaultPreviewH {
		t.Fatalf("frame dims = %dx%d", f.Image.Width, f.Image.Height)
	}
	if f.SensorLatency <= 0 {
		t.Fatal("sensor latency missing")
	}
}

func TestSensorLatencyPlausible(t *testing.T) {
	eng, cam := newCam()
	var lats []time.Duration
	for i := 0; i < 100; i++ {
		cam.Capture(func(f *Frame) { lats = append(lats, f.SensorLatency) })
	}
	eng.Run()
	for _, l := range lats {
		if l < 2*time.Millisecond || l > 15*time.Millisecond {
			t.Fatalf("sensor latency %v outside sane range", l)
		}
	}
	// Jitter: not all identical.
	same := true
	for _, l := range lats {
		if l != lats[0] {
			same = false
		}
	}
	if same {
		t.Fatal("no jitter on sensor latency")
	}
}

func TestSequenceNumbers(t *testing.T) {
	eng, cam := newCam()
	var seqs []int
	for i := 0; i < 5; i++ {
		cam.Capture(func(f *Frame) { seqs = append(seqs, f.Seq) })
	}
	eng.Run()
	if len(seqs) != 5 {
		t.Fatalf("frames = %d", len(seqs))
	}
	seen := map[int]bool{}
	for _, s := range seqs {
		if seen[s] {
			t.Fatal("duplicate sequence number")
		}
		seen[s] = true
	}
}

func TestConvertFrame(t *testing.T) {
	eng, cam := newCam()
	cam.Capture(func(f *Frame) {
		img := ConvertFrame(f)
		if img.Width != cam.Width || img.Height != cam.Height {
			t.Errorf("converted dims = %dx%d", img.Width, img.Height)
		}
	})
	eng.Run()
}

func TestConversionWorkScalesWithResolution(t *testing.T) {
	eng := sim.NewEngine()
	small := NewCamera(eng, sim.NewRNG(1), 320, 240)
	large := NewCamera(eng, sim.NewRNG(1), 1280, 720)
	if large.ConversionWork().Ops <= small.ConversionWork().Ops {
		t.Fatal("conversion work must scale with pixels")
	}
	if small.ConversionWork().Vectorizable {
		t.Fatal("managed conversion is not vectorizable")
	}
}

func TestFrameBytes(t *testing.T) {
	_, cam := newCam()
	if cam.FrameBytes() != DefaultPreviewW*DefaultPreviewH*3/2 {
		t.Fatalf("frame bytes = %d", cam.FrameBytes())
	}
}

func TestSynthesizeMode(t *testing.T) {
	eng, cam := newCam()
	cam.Synthesize = true
	var a, b *Frame
	cam.Capture(func(f *Frame) { a = f })
	cam.Capture(func(f *Frame) { b = f })
	eng.Run()
	diff := false
	for i := range a.Image.Y {
		if a.Image.Y[i] != b.Image.Y[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("synthesized frames must differ")
	}
}

func TestPoolModeCyclesDistinctFrames(t *testing.T) {
	eng, cam := newCam()
	imgs := map[*Frame]bool{}
	for i := 0; i < 8; i++ {
		cam.Capture(func(f *Frame) { imgs[f] = true })
	}
	eng.Run()
	if len(imgs) != 8 {
		t.Fatalf("frames = %d", len(imgs))
	}
}

// sameFrame reports whether two NV21 frames hold identical pixels.
func sameFrame(a, b *imaging.YUVImage) bool {
	return a.Width == b.Width && a.Height == b.Height &&
		bytes.Equal(a.Y, b.Y) && bytes.Equal(a.VU, b.VU)
}

// Pool-mode frames are the same pixels every camera used to paint for
// itself: seeds 1000.. at the (even-floored) preview size.
func TestPoolFramesMatchFreshSynthesis(t *testing.T) {
	eng := sim.NewEngine()
	for _, sz := range [][2]int{{DefaultPreviewW, DefaultPreviewH}, {320, 240}, {161, 121}} {
		cam := NewCamera(eng, sim.NewRNG(1), sz[0], sz[1])
		if len(cam.pool) != previewPoolSize {
			t.Fatalf("%v: pool holds %d frames", sz, len(cam.pool))
		}
		for i, img := range cam.pool {
			if want := imaging.SyntheticFrame(cam.Width, cam.Height, uint64(1000+i)); !sameFrame(img, want) {
				t.Fatalf("%v: pooled frame %d differs from a fresh SyntheticFrame", sz, i)
			}
		}
	}
}

// The shared frames must not outlive their cameras: once no camera
// holds them, two GC cycles empty the sync.Pool and the frames become
// garbage. A pool pinned for the life of the process would keep ~1 MB
// per 480×360 size alive (the fleet workload's heap peak guards this).
func TestPreviewFramesReclaimedAfterLastCamera(t *testing.T) {
	freed := make(chan struct{}, 8)
	holders := func() int {
		const w, h = 94, 70 // a size no other test opens
		eng := sim.NewEngine()
		seen := map[*[previewPoolSize]*imaging.YUVImage]bool{}
		for i := 0; i < 3; i++ {
			cam := NewCamera(eng, sim.NewRNG(uint64(i)), w, h)
			seen[(*[previewPoolSize]*imaging.YUVImage)(cam.pool)] = true
		}
		for holder := range seen {
			runtime.SetFinalizer(holder, func(*[previewPoolSize]*imaging.YUVImage) { freed <- struct{}{} })
		}
		return len(seen)
	}()
	runtime.GC()
	runtime.GC()
	for i := 0; i < holders; i++ {
		select {
		case <-freed:
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d preview pools still held after the last camera and two GCs", holders-i, holders)
		}
	}
}

// A Synthesize camera paints only into its own scratch ring: many
// synthesized captures leave the shared frames of the same size, as a
// pool-mode camera sees them, untouched.
func TestSynthesizeLeavesSharedFramesUnchanged(t *testing.T) {
	eng := sim.NewEngine()
	pooled := NewCamera(eng, sim.NewRNG(1), DefaultPreviewW, DefaultPreviewH)
	synth := NewCamera(eng, sim.NewRNG(2), DefaultPreviewW, DefaultPreviewH)
	synth.Synthesize = true
	shared := map[*imaging.YUVImage]bool{}
	for _, cam := range []*Camera{pooled, synth} {
		for _, img := range cam.pool {
			shared[img] = true
		}
	}
	const n = 40
	delivered := 0
	for i := 0; i < n; i++ {
		synth.Capture(func(f *Frame) {
			delivered++
			if shared[f.Image] {
				t.Errorf("synthesized frame %d delivered a shared pool frame", f.Seq)
			}
		})
	}
	eng.Run()
	if delivered != n {
		t.Fatalf("delivered %d of %d synthesized frames", delivered, n)
	}
	for _, cam := range []*Camera{pooled, synth} {
		for i, img := range cam.pool {
			if want := imaging.SyntheticFrame(DefaultPreviewW, DefaultPreviewH, uint64(1000+i)); !sameFrame(img, want) {
				t.Fatalf("shared frame (seed %d) changed after %d synthesized captures", 1000+i, n)
			}
		}
	}
	for i := 0; i < previewPoolSize; i++ {
		pooled.Capture(func(f *Frame) {
			if f.Image != pooled.pool[f.Seq%previewPoolSize] {
				t.Errorf("pool-mode capture %d did not deliver its shared frame", f.Seq)
			}
		})
	}
	eng.Run()
}

func TestOddResolutionFloored(t *testing.T) {
	eng := sim.NewEngine()
	cam := NewCamera(eng, sim.NewRNG(1), 641, 481)
	if cam.Width != 640 || cam.Height != 480 {
		t.Fatalf("dims = %dx%d", cam.Width, cam.Height)
	}
}

func TestIMUReadOrientation(t *testing.T) {
	eng := sim.NewEngine()
	imu := NewIMU(eng, sim.NewRNG(3))
	var turns []int
	for i := 0; i < 200; i++ {
		imu.ReadOrientation(func(q int) { turns = append(turns, q) })
	}
	eng.Run()
	if len(turns) != 200 || imu.Reads() != 200 {
		t.Fatalf("reads = %d/%d", len(turns), imu.Reads())
	}
	for _, q := range turns {
		if q < 0 || q > 3 {
			t.Fatalf("orientation %d out of range", q)
		}
	}
	// With ~2% rotation probability over 200 reads, the orientation must
	// have changed at least once.
	changed := false
	for i := 1; i < len(turns); i++ {
		if turns[i] != turns[i-1] {
			changed = true
		}
	}
	if !changed {
		t.Fatal("orientation never changed over 200 reads")
	}
}

func TestIMUReadLatencyPositive(t *testing.T) {
	eng := sim.NewEngine()
	imu := NewIMU(eng, sim.NewRNG(5))
	imu.ReadOrientation(nil)
	if end := eng.Run(); end.Duration() <= 0 || end.Duration() > 2*time.Millisecond {
		t.Fatalf("imu read latency = %v", end.Duration())
	}
}

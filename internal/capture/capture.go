// Package capture models the Android camera data-acquisition path the
// paper identifies as a major share of application latency (§II-A): a
// sensor with exposure/readout/ISP latency delivering YUV_NV21 preview
// frames, plus the CPU-side buffer handling the app performs to obtain a
// usable frame. Sensor-side latency is constant-ish with jitter; the
// CPU-side conversion runs on the scheduler, so background CPU load
// stretches it — exactly the Fig. 10 behaviour.
package capture

import (
	"sync"
	"time"

	"aitax/internal/imaging"
	"aitax/internal/sim"
	"aitax/internal/work"
)

// Frame is one delivered camera frame.
type Frame struct {
	// Image is read-only. In pool mode (Synthesize false) it is one of
	// the process-wide preview frames every camera of the same size
	// shares, possibly with cameras on other goroutines; a consumer that
	// needs to modify pixels must copy them first.
	Image       *imaging.YUVImage
	Seq         int
	DeliveredAt sim.Time
	// SensorLatency is the non-CPU share of acquisition (exposure,
	// readout, ISP, HAL delivery).
	SensorLatency time.Duration
}

// Camera is a preview-stream camera session.
type Camera struct {
	eng *sim.Engine
	rng *sim.RNG

	// Width and Height are the preview resolution (the demo apps request
	// a small preview, not full sensor resolution).
	Width, Height int
	// Exposure+Readout is the sensor-side base latency per frame.
	Exposure time.Duration
	Readout  time.Duration
	// JitterCV is the coefficient of variation on sensor latency —
	// "delays in the interrupt handling from sensor input streams"
	// (§IV-C) feeding the Fig. 11 variability.
	JitterCV float64

	// Synthesize controls whether each frame gets fresh procedural
	// content painted into a camera-owned scratch ring (true) or cycles
	// the shared read-only preview frames (false, the fast default for
	// long experiments).
	Synthesize bool

	pool    []*imaging.YUVImage
	scratch []*imaging.YUVImage // ring reused by the Synthesize path
	seq     int
}

// DefaultPreviewW and DefaultPreviewH are the demo apps' preview size.
const (
	DefaultPreviewW = 480
	DefaultPreviewH = 360
)

// NewCamera opens a camera session at the given preview resolution.
// In pool mode its frames are the shared read-only preview frames for
// that resolution (see previewFrames): no consumer may write to them.
func NewCamera(eng *sim.Engine, rng *sim.RNG, width, height int) *Camera {
	c := &Camera{
		eng: eng, rng: rng,
		Width: width &^ 1, Height: height &^ 1,
		Exposure: 4 * time.Millisecond,
		Readout:  3 * time.Millisecond,
		JitterCV: 0.18,
	}
	c.pool = previewFrames(c.Width, c.Height)
	return c
}

// previewPoolSize is the number of distinct pregenerated preview frames
// (seeds 1000, 1001, ...) a pool-mode camera cycles.
const previewPoolSize = 4

// previewPools maps a preview size to a sync.Pool holding that size's
// frames. Every camera keeps its own reference to the frames, so the
// sync.Pool is only a cache between camera constructions: the GC
// empties it two cycles after its last Get, and the frames are
// reclaimed once no camera holds them. Frames kept alive for good
// would instead pin ~1 MB per 480×360 size for the life of the process.
var (
	previewPoolsMu sync.Mutex
	previewPools   = map[[2]int]*sync.Pool{}
)

// previewFrames returns the shared read-only preview frames for a
// width×height camera, painting them on a pool miss. The frames carry
// the same pixels whichever camera first painted them.
func previewFrames(width, height int) []*imaging.YUVImage {
	key := [2]int{width, height}
	previewPoolsMu.Lock()
	p := previewPools[key]
	if p == nil {
		p = new(sync.Pool)
		previewPools[key] = p
	}
	previewPoolsMu.Unlock()
	frames, _ := p.Get().(*[previewPoolSize]*imaging.YUVImage)
	if frames == nil {
		frames = new([previewPoolSize]*imaging.YUVImage)
		for i := range frames {
			frames[i] = imaging.SyntheticFrame(width, height, uint64(1000+i))
		}
	}
	p.Put(frames)
	return frames[:]
}

// FrameBytes returns the NV21 frame size.
func (c *Camera) FrameBytes() int { return c.Width * c.Height * 3 / 2 }

// ConversionWork is the CPU-side cost of turning the delivered NV21
// buffer into an ARGB bitmap ("bitmap formatting", §II-B) — per-pixel
// integer math that Android apps perform in managed code.
func (c *Camera) ConversionWork() work.Work {
	px := int64(c.Width) * int64(c.Height)
	return work.Work{Ops: px * 12, Bytes: px * (3/2 + 4), Vectorizable: false}
}

// Capture delivers the next frame after the sensor-side latency. The
// CPU-side conversion is the caller's job (it belongs to the app's
// threads); ConvertFrame performs it for real.
func (c *Camera) Capture(done func(*Frame)) {
	base := c.Exposure + c.Readout
	lat := c.rng.Jitter(base, c.JitterCV)
	seq := c.seq
	c.seq++
	c.eng.After(lat, func() {
		var img *imaging.YUVImage
		if c.Synthesize {
			// Paint into a camera-owned scratch ring: like the pooled
			// path, a delivered image is recycled after len(pool) more
			// captures, which is the lifetime a preview buffer has anyway.
			if c.scratch == nil {
				c.scratch = make([]*imaging.YUVImage, len(c.pool))
				for i := range c.scratch {
					c.scratch[i] = imaging.NewYUV(c.Width, c.Height)
				}
			}
			img = imaging.SyntheticFrameInto(c.scratch[seq%len(c.scratch)], uint64(5000+seq))
		} else {
			img = c.pool[seq%len(c.pool)]
		}
		done(&Frame{Image: img, Seq: seq, DeliveredAt: c.eng.Now(), SensorLatency: lat})
	})
}

// ConvertFrame performs the real NV21→ARGB conversion of a frame.
func ConvertFrame(f *Frame) *imaging.ARGBImage {
	return imaging.YUVToARGB(f.Image)
}

// ConvertFrameInto is the scratch-reusing variant of ConvertFrame: the
// bitmap is decoded into dst, which steady-state callers recycle every
// frame so the conversion allocates nothing. Returns dst.
func ConvertFrameInto(dst *imaging.ARGBImage, f *Frame) *imaging.ARGBImage {
	return imaging.YUVToARGBInto(dst, f.Image)
}

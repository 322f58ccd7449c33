package preproc

import (
	"os"
	"testing"
	"time"

	"aitax/internal/imaging"
	"aitax/internal/tensor"
)

// In-process half of the wall-time gate for the conversion kernels (see
// internal/imaging/wallgate_test.go for the rationale): each table-based
// unrolled kernel races the scalar per-channel definition it replaced,
// interleaved so machine noise cancels, gated behind AITAX_WALL_GATE=1.

func minWall2(rounds int, a, b func()) (minA, minB time.Duration) {
	a()
	b()
	minA, minB = time.Duration(1<<62), time.Duration(1<<62)
	for r := 0; r < rounds; r++ {
		t0 := time.Now()
		a()
		t1 := time.Now()
		b()
		t2 := time.Now()
		if d := t1.Sub(t0); d < minA {
			minA = d
		}
		if d := t2.Sub(t1); d < minB {
			minB = d
		}
	}
	return minA, minB
}

// refNormalizeInto is the scalar definition Normalize started as: one
// float subtract/divide per channel, no tables, no unrolling.
func refNormalizeInto(dst *tensor.Tensor, src *imaging.ARGBImage, mean, std float64) *tensor.Tensor {
	t := tensor.Ensure(dst, tensor.Float32, tensor.Shape{1, src.Height, src.Width, 3})
	idx := 0
	for _, p := range src.Pix {
		r, g, b := imaging.RGB(p)
		t.F32[idx] = float32((float64(r) - mean) / std)
		t.F32[idx+1] = float32((float64(g) - mean) / std)
		t.F32[idx+2] = float32((float64(b) - mean) / std)
		idx += 3
	}
	return t
}

// refQuantizeInto is the scalar definition of QuantizeInput for byte
// targets: one QuantParams.Quantize call per channel.
func refQuantizeInto(dst *tensor.Tensor, src *imaging.ARGBImage, dt tensor.DType, q tensor.QuantParams) *tensor.Tensor {
	t := tensor.Ensure(dst, dt, tensor.Shape{1, src.Height, src.Width, 3})
	t.Quant = q
	idx := 0
	for _, p := range src.Pix {
		r, g, b := imaging.RGB(p)
		for c, ch := range [3]uint8{r, g, b} {
			v := byte(q.Quantize(float64(ch), dt))
			if dt == tensor.UInt8 {
				t.U8[idx+c] = v
			} else {
				t.I8[idx+c] = int8(v)
			}
		}
		idx += 3
	}
	return t
}

func TestWallGateConvertKernels(t *testing.T) {
	if os.Getenv("AITAX_WALL_GATE") == "" {
		t.Skip("in-process wall check; run via `make bench-wall` (AITAX_WALL_GATE=1)")
	}
	scene := imaging.SyntheticScene(224, 224, 7)
	q := tensor.QuantParams{Scale: 0.0078125, ZeroPoint: 128}
	var swarOut, refOut *tensor.Tensor

	report := func(name string, swar, ref time.Duration) {
		t.Helper()
		t.Logf("%s: table kernel %v vs scalar %v (%.1f%% faster)",
			name, swar, ref, (1-float64(swar)/float64(ref))*100)
		if float64(swar) > 0.97*float64(ref) {
			t.Errorf("%s: table kernel (%v) is not measurably faster than the scalar definition (%v)",
				name, swar, ref)
		}
	}

	swar, ref := minWall2(40,
		func() { swarOut = NormalizeInto(swarOut, scene, 127.5, 127.5) },
		func() { refOut = refNormalizeInto(refOut, scene, 127.5, 127.5) })
	report("Normalize 224", swar, ref)
	for i, v := range refOut.F32 {
		if swarOut.F32[i] != v {
			t.Fatalf("normalize reference diverged at element %d", i)
		}
	}

	var swarQ, refQ *tensor.Tensor
	swar, ref = minWall2(40,
		func() { swarQ = QuantizeInputInto(swarQ, scene, tensor.UInt8, q) },
		func() { refQ = refQuantizeInto(refQ, scene, tensor.UInt8, q) })
	report("QuantizeInput 224 uint8", swar, ref)
	for i, v := range refQ.U8 {
		if swarQ.U8[i] != v {
			t.Fatalf("quantize reference diverged at element %d", i)
		}
	}
}

package postproc

import (
	"math"
	"math/rand/v2"
	"testing"

	"aitax/internal/tensor"
)

// randomScores fills an NHWC score tensor of the given dtype with a
// seeded pattern covering the full raw range (including exact ties, so
// the first-wins rule is exercised).
func randomScores(dt tensor.DType, shape tensor.Shape, q tensor.QuantParams, seed uint64) *tensor.Tensor {
	t := tensor.New(dt, shape)
	t.Quant = q
	r := rand.New(rand.NewPCG(seed, 99))
	for i, n := 0, t.Elems(); i < n; i++ {
		switch dt {
		case tensor.Float32:
			t.F32[i] = float32(r.NormFloat64() * 3)
		case tensor.UInt8:
			t.U8[i] = uint8(r.IntN(256))
		case tensor.Int8:
			t.I8[i] = int8(r.IntN(256) - 128)
		case tensor.Int32:
			t.I32[i] = int32(r.IntN(64) - 32)
		}
	}
	return t
}

// atArgmaxMask is the original generic FlattenMask loop, kept as the
// reference the dtype-specialized kernels must reproduce exactly.
func atArgmaxMask(t *tensor.Tensor) []int {
	h, w, c := t.Shape[1], t.Shape[2], t.Shape[3]
	mask := make([]int, h*w)
	for p := 0; p < h*w; p++ {
		base := p * c
		best, bestScore := 0, t.At(base)
		for ch := 1; ch < c; ch++ {
			if s := t.At(base + ch); s > bestScore {
				best, bestScore = ch, s
			}
		}
		mask[p] = best
	}
	return mask
}

func TestFlattenMaskFastPathsMatchGenericScan(t *testing.T) {
	shape := tensor.Shape{1, 33, 29, 21}
	cases := []struct {
		dt tensor.DType
		q  tensor.QuantParams
	}{
		{tensor.Float32, tensor.QuantParams{}},
		{tensor.Int32, tensor.QuantParams{}},
		{tensor.UInt8, tensor.QuantParams{Scale: 0.00390625, ZeroPoint: 0}},
		{tensor.UInt8, tensor.QuantParams{Scale: 2.5, ZeroPoint: 131}},
		{tensor.Int8, tensor.QuantParams{Scale: 0.1, ZeroPoint: -7}},
		// Degenerate scale: every score dequantizes to the same value,
		// so the argmax must stay 0 everywhere (generic path).
		{tensor.UInt8, tensor.QuantParams{Scale: 0, ZeroPoint: 10}},
	}
	for _, tc := range cases {
		scores := randomScores(tc.dt, shape, tc.q, 7)
		want := atArgmaxMask(scores)
		got := FlattenMask(scores)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v %+v: pixel %d = %d, want %d", tc.dt, tc.q, i, got[i], want[i])
			}
		}
	}
}

func TestFlattenMaskNaNMatchesGenericScan(t *testing.T) {
	scores := randomScores(tensor.Float32, tensor.Shape{1, 8, 8, 5}, tensor.QuantParams{}, 3)
	nan := float32(math.NaN())
	scores.F32[0], scores.F32[7], scores.F32[63] = nan, nan, nan
	want := atArgmaxMask(scores)
	got := FlattenMask(scores)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pixel %d = %d, want %d", i, got[i], want[i])
		}
	}
}

// atDecodeBoxes is the original sequential DecodeBoxes loop.
func atDecodeBoxes(locs, scores *tensor.Tensor, anchors []Anchor, threshold float64) []Box {
	n, c := scores.Shape[1], scores.Shape[2]
	const scaleXY, scaleHW = 10.0, 5.0
	var out []Box
	for i := 0; i < n; i++ {
		bestC, bestS := 0, 0.0
		for ch := 1; ch < c; ch++ {
			if s := scores.At(i*c + ch); s > bestS {
				bestC, bestS = ch, s
			}
		}
		if bestC == 0 || bestS < threshold {
			continue
		}
		a := anchors[i]
		ty, tx := locs.At(i*4), locs.At(i*4+1)
		th, tw := locs.At(i*4+2), locs.At(i*4+3)
		cy := ty/scaleXY*a.H + a.CY
		cx := tx/scaleXY*a.W + a.CX
		hh := math.Exp(th/scaleHW) * a.H
		ww := math.Exp(tw/scaleHW) * a.W
		out = append(out, Box{
			YMin: cy - hh/2, XMin: cx - ww/2,
			YMax: cy + hh/2, XMax: cx + ww/2,
			Class: bestC, Score: bestS,
		})
	}
	return out
}

func TestDecodeBoxesFastPathsMatchGenericScan(t *testing.T) {
	anchors := DefaultAnchors(8)
	n := len(anchors)
	locs := randomScores(tensor.Float32, tensor.Shape{1, n, 4}, tensor.QuantParams{}, 13)
	cases := []struct {
		dt tensor.DType
		q  tensor.QuantParams
	}{
		{tensor.Float32, tensor.QuantParams{}},
		{tensor.UInt8, tensor.QuantParams{Scale: 0.00390625, ZeroPoint: 128}},
		{tensor.UInt8, tensor.QuantParams{Scale: 1, ZeroPoint: 0}},
		{tensor.Int8, tensor.QuantParams{Scale: 0.02, ZeroPoint: 5}},
		{tensor.UInt8, tensor.QuantParams{Scale: 0, ZeroPoint: 3}}, // generic fallback
	}
	for _, tc := range cases {
		scores := randomScores(tc.dt, tensor.Shape{1, n, 91}, tc.q, 17)
		for _, threshold := range []float64{0.0, 0.25, 0.6} {
			want := atDecodeBoxes(locs, scores, anchors, threshold)
			got := DecodeBoxes(locs, scores, anchors, threshold)
			if len(got) != len(want) {
				t.Fatalf("%v %+v thr=%v: %d boxes, want %d", tc.dt, tc.q, threshold, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%v %+v thr=%v: box %d = %+v, want %+v", tc.dt, tc.q, threshold, i, got[i], want[i])
				}
			}
		}
	}
}

// atDecodeKeypoints is the original sequential keypoint decode.
func atDecodeKeypoints(heatmaps, offsets *tensor.Tensor, outputStride int) []Keypoint {
	h, w, k := heatmaps.Shape[1], heatmaps.Shape[2], heatmaps.Shape[3]
	out := make([]Keypoint, k)
	for kp := 0; kp < k; kp++ {
		bestY, bestX, bestScore := 0, 0, math.Inf(-1)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				s := heatmaps.At(((y*w)+x)*k + kp)
				if s > bestScore {
					bestY, bestX, bestScore = y, x, s
				}
			}
		}
		offBase := ((bestY * w) + bestX) * 2 * k
		out[kp] = Keypoint{
			Y:     float64(bestY*outputStride) + offsets.At(offBase+kp),
			X:     float64(bestX*outputStride) + offsets.At(offBase+k+kp),
			Score: sigmoid(bestScore),
		}
	}
	return out
}

func TestDecodeKeypointsFastPathsMatchGenericScan(t *testing.T) {
	shape := tensor.Shape{1, 9, 9, 17}
	offShape := tensor.Shape{1, 9, 9, 34}
	offsets := randomScores(tensor.Float32, offShape, tensor.QuantParams{}, 29)
	cases := []struct {
		dt tensor.DType
		q  tensor.QuantParams
	}{
		{tensor.Float32, tensor.QuantParams{}},
		{tensor.UInt8, tensor.QuantParams{Scale: 0.00390625, ZeroPoint: 128}},
		{tensor.Int8, tensor.QuantParams{Scale: 0.05, ZeroPoint: 0}},
		{tensor.UInt8, tensor.QuantParams{Scale: 0, ZeroPoint: 0}}, // generic fallback
	}
	for _, tc := range cases {
		heatmaps := randomScores(tc.dt, shape, tc.q, 31)
		want := atDecodeKeypoints(heatmaps, offsets, 32)
		got := DecodeKeypoints(heatmaps, offsets, 32)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v %+v: keypoint %d = %+v, want %+v", tc.dt, tc.q, i, got[i], want[i])
			}
		}
	}
}

package postproc

// Dtype-specialized fast paths for the heavy post-processing kernels,
// all output-preserving. The generic kernels call tensor.At per element
// — a dequantizing switch that dominates the DeepLab mask flatten (5.5M
// calls per frame). For the common dtypes the argmax can instead
// compare raw storage: float64(float32) is a monotone injection (and
// NaN stays incomparable), int32 order is the float64 order, and for
// quantized tensors real = scale*(q-zp) is strictly increasing in q
// whenever scale > 0 — distinct bytes can't collide after rounding
// because their real values differ by at least scale, far above one ulp
// at this magnitude. Tensors with scale <= 0 (or exotic dtypes) take
// the original At loop.

import (
	"math"

	"aitax/internal/tensor"
)

// rawComparable are the element types whose native order equals the
// dequantized float64 order (given scale > 0 for the byte types).
type rawComparable interface {
	~int8 | ~uint8 | ~int32 | ~float32
}

// argmaxRows writes the per-row argmax of a len(mask)×c matrix into
// mask, with the same strict-greater first-wins tie rule as the
// At-based loop.
func argmaxRows[E rawComparable](mask []int, s []E, c int) {
	for p := range mask {
		row := s[p*c:][:c]
		best, bestS := 0, row[0]
		for ch := 1; ch < c; ch++ {
			if row[ch] > bestS {
				best, bestS = ch, row[ch]
			}
		}
		mask[p] = best
	}
}

// flattenMask writes the per-pixel argmax over t's c channels into mask.
func flattenMask(mask []int, t *tensor.Tensor, c int) {
	switch {
	case t.DType == tensor.Float32:
		argmaxRows(mask, t.F32, c)
	case t.DType == tensor.Int32:
		argmaxRows(mask, t.I32, c)
	case t.DType == tensor.UInt8 && t.Quant.Scale > 0:
		argmaxRows(mask, t.U8, c)
	case t.DType == tensor.Int8 && t.Quant.Scale > 0:
		argmaxRows(mask, t.I8, c)
	default:
		for p := range mask {
			base := p * c
			best, bestScore := 0, t.At(base)
			for ch := 1; ch < c; ch++ {
				if s := t.At(base + ch); s > bestScore {
					best, bestScore = ch, s
				}
			}
			mask[p] = best
		}
	}
}

// boxDecoder decodes SSD anchors into boxes for DecodeBoxesInto.
type boxDecoder struct {
	locs      *tensor.Tensor
	anchors   []Anchor
	threshold float64
}

// add appends anchor i's box to out when its best class is not the
// background and its score passes the threshold.
func (d *boxDecoder) add(out []Box, i, class int, score float64) []Box {
	if class == 0 || score < d.threshold {
		return out
	}
	const scaleXY, scaleHW = 10.0, 5.0
	a, locs := d.anchors[i], d.locs
	ty, tx := locs.At(i*4), locs.At(i*4+1)
	th, tw := locs.At(i*4+2), locs.At(i*4+3)
	cy := ty/scaleXY*a.H + a.CY
	cx := tx/scaleXY*a.W + a.CX
	hh := math.Exp(th/scaleHW) * a.H
	ww := math.Exp(tw/scaleHW) * a.W
	return append(out, Box{
		YMin: cy - hh/2, XMin: cx - ww/2,
		YMax: cy + hh/2, XMax: cx + ww/2,
		Class: class, Score: score,
	})
}

// decodeRaw scans n anchors of raw class scores, skipping background
// channel 0, replicating "s > bestS with bestS starting at 0.0" in the
// raw domain: the raw threshold init is the value that dequantizes to
// exactly 0.0 (the zero point; 0 for identity dtypes). Each anchor's
// best class goes straight to d.add, so boxes append in anchor order.
func decodeRaw[E rawComparable](out []Box, d *boxDecoder, s []E, n, c int, init E, deq func(E) float64) []Box {
	for i := 0; i < n; i++ {
		row := s[i*c:][:c]
		best, bestRaw := 0, init
		for ch := 1; ch < c; ch++ {
			if row[ch] > bestRaw {
				best, bestRaw = ch, row[ch]
			}
		}
		out = d.add(out, i, best, deq(bestRaw))
	}
	return out
}

// decodeBoxes appends the boxes of n anchors with c score channels each
// to out, taking the raw-domain fast path where the dtype allows it.
func decodeBoxes(out []Box, d *boxDecoder, t *tensor.Tensor, n, c int) []Box {
	q := t.Quant
	switch {
	case t.DType == tensor.Float32:
		return decodeRaw(out, d, t.F32, n, c, 0, func(v float32) float64 { return float64(v) })
	case t.DType == tensor.Int32:
		return decodeRaw(out, d, t.I32, n, c, 0, func(v int32) float64 { return float64(v) })
	case t.DType == tensor.UInt8 && q.Scale > 0 && q.ZeroPoint >= 0 && q.ZeroPoint <= 255:
		return decodeRaw(out, d, t.U8, n, c, uint8(q.ZeroPoint),
			func(v uint8) float64 { return q.Dequantize(int(v)) })
	case t.DType == tensor.Int8 && q.Scale > 0 && q.ZeroPoint >= -128 && q.ZeroPoint <= 127:
		return decodeRaw(out, d, t.I8, n, c, int8(q.ZeroPoint),
			func(v int8) float64 { return q.Dequantize(int(v)) })
	}
	for i := 0; i < n; i++ {
		best, bestScore := 0, 0.0
		for ch := 1; ch < c; ch++ {
			if s := t.At(i*c + ch); s > bestScore {
				best, bestScore = ch, s
			}
		}
		out = d.add(out, i, best, bestScore)
	}
	return out
}

// decodeKeypoints fills out (one entry per heatmap channel) from
// [1, h, w, len(out)] heatmaps and their [1, h, w, 2*len(out)] offsets.
func decodeKeypoints(out []Keypoint, hm, offsets *tensor.Tensor, h, w, stride int) {
	k := len(out)
	for kp := range out {
		bestY, bestX := 0, 0
		var bestScore float64
		switch {
		case hm.DType == tensor.Float32:
			bestScore = math.Inf(-1)
			idx := kp
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					if s := float64(hm.F32[idx]); s > bestScore {
						bestY, bestX, bestScore = y, x, s
					}
					idx += k
				}
			}
		case hm.DType == tensor.UInt8 && hm.Quant.Scale > 0:
			// Raw bytes can't be NaN, so seeding from cell (0,0) is
			// equivalent to the -Inf init of the float path.
			bestRaw := hm.U8[kp]
			idx := kp
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					if v := hm.U8[idx]; v > bestRaw {
						bestY, bestX, bestRaw = y, x, v
					}
					idx += k
				}
			}
			bestScore = hm.Quant.Dequantize(int(bestRaw))
		case hm.DType == tensor.Int8 && hm.Quant.Scale > 0:
			bestRaw := hm.I8[kp]
			idx := kp
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					if v := hm.I8[idx]; v > bestRaw {
						bestY, bestX, bestRaw = y, x, v
					}
					idx += k
				}
			}
			bestScore = hm.Quant.Dequantize(int(bestRaw))
		default:
			bestScore = math.Inf(-1)
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					if s := hm.At(((y*w)+x)*k + kp); s > bestScore {
						bestY, bestX, bestScore = y, x, s
					}
				}
			}
		}
		offBase := ((bestY * w) + bestX) * 2 * k
		offY := offsets.At(offBase + kp)
		offX := offsets.At(offBase + k + kp)
		out[kp] = Keypoint{
			Y:     float64(bestY*stride) + offY,
			X:     float64(bestX*stride) + offX,
			Score: sigmoid(bestScore),
		}
	}
}

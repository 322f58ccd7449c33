package imaging

import (
	"os"
	"testing"
	"time"
)

// This file is the in-process half of the wall-time gate (`make
// bench-wall`): it races each SWAR conversion kernel against the scalar
// per-pixel reference it replaced, interleaved in the same process, and
// asserts the SWAR side is measurably faster. Interleaving makes the
// check robust where a cross-run ns/op comparison is not: CPU steal and
// frequency jitter hit both implementations alike, and taking the
// minimum over many short rounds converges on the true runtime of each.
// The checks only run with AITAX_WALL_GATE=1 so the ordinary test suite
// stays timing-free.

// minWall interleaves a and b for the given number of rounds and
// returns each side's fastest round — the noise-robust estimate of its
// steady-state runtime.
func minWall(rounds int, a, b func()) (minA, minB time.Duration) {
	a()
	b() // warm-up: tables, pools, branch predictors
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

// requireFaster fails unless the SWAR side beat the scalar reference by
// at least 3% (the measured margins are 20%+; the slack absorbs
// residual jitter without letting a real regression through).
func requireFaster(t *testing.T, name string, swar, ref time.Duration) {
	t.Helper()
	t.Logf("%s: swar %v vs scalar %v (%.1f%% faster)",
		name, swar, ref, (1-float64(swar)/float64(ref))*100)
	if float64(swar) > 0.97*float64(ref) {
		t.Errorf("%s: SWAR kernel (%v) is not measurably faster than the scalar reference (%v)",
			name, swar, ref)
	}
}

// refYUVToARGBInto is the pre-SWAR scalar kernel: per-pixel table
// lookups with a clamp on every channel. Kept as the wall-gate foil.
func refYUVToARGBInto(dst *ARGBImage, src *YUVImage) {
	dst.Resize(src.Width, src.Height)
	w := src.Width
	for j := 0; j < src.Height; j++ {
		yRow := src.Y[j*w : j*w+w]
		vuRow := src.VU[(j/2)*w : (j/2)*w+w]
		out := dst.Pix[j*w : j*w+w]
		for i := 0; i < w; i += 2 {
			v, u := vuRow[i], vuRow[i+1]
			rC, gC, bC := rvTab[v], gvTab[v]+guTab[u], buTab[u]
			y0 := lumTab[yRow[i]]
			out[i] = PackRGB(clampU8(int(y0+rC)>>10), clampU8(int(y0+gC)>>10), clampU8(int(y0+bC)>>10))
			y1 := lumTab[yRow[i+1]]
			out[i+1] = PackRGB(clampU8(int(y1+rC)>>10), clampU8(int(y1+gC)>>10), clampU8(int(y1+bC)>>10))
		}
	}
}

// refARGBToYUVInto is the pre-SWAR scalar encode: per-pixel lookups,
// per-byte stores, and the historical (never-firing) clamps.
func refARGBToYUVInto(dst *YUVImage, src *ARGBImage) {
	dst.Resize(src.Width&^1, src.Height&^1)
	w := dst.Width
	for j := 0; j < dst.Height; j++ {
		srcRow := src.Pix[j*src.Width : j*src.Width+w]
		yRow := dst.Y[j*w : j*w+w]
		for i, p := range srcRow {
			r, g, b := uint8(p>>16), uint8(p>>8), uint8(p)
			yRow[i] = clampU8(int((yrTab[r]+ygTab[g]+ybTab[b]+128)>>8) + 16)
		}
		if j%2 == 0 {
			vuRow := dst.VU[(j/2)*w : (j/2)*w+w]
			for i := 0; i < w; i += 2 {
				p := srcRow[i]
				r, g, b := uint8(p>>16), uint8(p>>8), uint8(p)
				vuRow[i] = clampU8(int((vrTab[r]+vgTab[g]+vbTab[b]+128)>>8) + 128)
				vuRow[i+1] = clampU8(int((urTab[r]+ugTab[g]+ubTab[b]+128)>>8) + 128)
			}
		}
	}
}

func TestWallGateConversionKernels(t *testing.T) {
	if os.Getenv("AITAX_WALL_GATE") == "" {
		t.Skip("in-process wall check; run via `make bench-wall` (AITAX_WALL_GATE=1)")
	}
	frame := SyntheticFrame(640, 480, 7)
	scene := SyntheticScene(640, 480, 7)
	bmp := NewARGB(640, 480)
	refBmp := NewARGB(640, 480)
	nv := NewYUV(640, 480)
	refNV := NewYUV(640, 480)

	swar, ref := minWall(40,
		func() { YUVToARGBInto(bmp, frame) },
		func() { refYUVToARGBInto(refBmp, frame) })
	requireFaster(t, "YUVToARGB 480p", swar, ref)
	for i, p := range refBmp.Pix {
		if bmp.Pix[i] != p {
			t.Fatalf("decode reference diverged at pixel %d", i)
		}
	}

	swar, ref = minWall(40,
		func() { ARGBToYUVInto(nv, scene) },
		func() { refARGBToYUVInto(refNV, scene) })
	requireFaster(t, "ARGBToYUV 480p", swar, ref)
	for i, y := range refNV.Y {
		if nv.Y[i] != y {
			t.Fatalf("encode reference diverged at luma byte %d", i)
		}
	}
	for i, c := range refNV.VU {
		if nv.VU[i] != c {
			t.Fatalf("encode reference diverged at chroma byte %d", i)
		}
	}
}

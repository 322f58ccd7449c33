package imaging

import (
	"bytes"
	"testing"
)

// FuzzYUVConversion drives the NV21 decode with arbitrary plane bytes:
// it must never panic and must fill every output pixel with an opaque
// color.
// fillCyclic fills dst from src repeated, or a fixed pattern when src is
// empty, so fuzz inputs of any length exercise the full plane.
func fillCyclic(dst, src []byte) {
	if len(src) == 0 {
		for i := range dst {
			dst[i] = byte(i*37 + 11)
		}
		return
	}
	for i := range dst {
		dst[i] = src[i%len(src)]
	}
}

// FuzzYUVToARGBSwarBitExact checks the SWAR decode against the scalar
// BT.601 reference over fuzzed plane bytes (including out-of-gamut
// chroma that forces the clamp fallback path) and over widths covering
// every w%8 tail lane.
func FuzzYUVToARGBSwarBitExact(f *testing.F) {
	f.Add(uint8(0), uint8(0), []byte{128, 16, 235}, []byte{0, 255})
	f.Add(uint8(3), uint8(1), []byte{255}, []byte{0})
	f.Add(uint8(8), uint8(2), []byte{}, []byte{77, 200})
	f.Fuzz(func(t *testing.T, w8, h8 uint8, y, vu []byte) {
		w := 2 + 2*int(w8%17) // even widths 2..34: all tail lanes
		h := 2 + 2*int(h8%4)
		src := NewYUV(w, h)
		fillCyclic(src.Y, y)
		fillCyclic(src.VU, vu)
		want := scalarYUVToARGB(src)
		got := YUVToARGB(src)
		if !bytes.Equal(pixBytes(got), pixBytes(want)) {
			t.Fatalf("%dx%d: SWAR decode differs from scalar reference", w, h)
		}
	})
}

// FuzzARGBToYUVSwarBitExact checks the SWAR encode against the scalar
// reference over fuzzed pixel bytes and tail-lane-covering widths.
func FuzzARGBToYUVSwarBitExact(f *testing.F) {
	f.Add(uint8(0), uint8(0), []byte{0xFF, 0x00, 0x80})
	f.Add(uint8(5), uint8(2), []byte{})
	f.Add(uint8(12), uint8(3), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Fuzz(func(t *testing.T, w8, h8 uint8, pix []byte) {
		w := 2 + 2*int(w8%17)
		h := 2 + 2*int(h8%4)
		src := NewARGB(w, h)
		raw := make([]byte, w*h*4)
		fillCyclic(raw, pix)
		for i := range src.Pix {
			src.Pix[i] = uint32(raw[i*4])<<24 | uint32(raw[i*4+1])<<16 |
				uint32(raw[i*4+2])<<8 | uint32(raw[i*4+3])
		}
		want := scalarARGBToYUV(src)
		got := ARGBToYUV(src)
		if !bytes.Equal(got.Y, want.Y) || !bytes.Equal(got.VU, want.VU) {
			t.Fatalf("%dx%d: SWAR encode differs from scalar reference", w, h)
		}
	})
}

// TestSwarKernelsAllTailLanes sweeps every even width 2..34 (so every
// w%8 tail lane), pinning both SWAR conversions bit-exact against the
// scalar references.
func TestSwarKernelsAllTailLanes(t *testing.T) {
	for w := 2; w <= 34; w += 2 {
		for _, h := range []int{2, 6} {
			frame := NewYUV(w, h)
			for i := range frame.Y {
				frame.Y[i] = byte(i*31 + 7)
			}
			for i := range frame.VU {
				frame.VU[i] = byte(i*53 + 3) // spans out-of-gamut chroma
			}
			want := scalarYUVToARGB(frame)
			got := YUVToARGB(frame)
			if !bytes.Equal(pixBytes(got), pixBytes(want)) {
				t.Fatalf("decode %dx%d differs", w, h)
			}
			scene := NewARGB(w, h)
			for i := range scene.Pix {
				scene.Pix[i] = uint32(i*2654435761 + 97)
			}
			wantYUV := scalarARGBToYUV(scene)
			gotYUV := ARGBToYUV(scene)
			if !bytes.Equal(gotYUV.Y, wantYUV.Y) || !bytes.Equal(gotYUV.VU, wantYUV.VU) {
				t.Fatalf("encode %dx%d differs", w, h)
			}
		}
	}
}

// TestEncodeBytesNeverClamp exhaustively proves the claim that lets the
// encode helpers skip clamping: over the entire 2^24 RGB cube the luma
// and chroma bytes stay inside [0, 255] (luma in [16, 235], chroma in
// [16, 240]), so dropping clampU8 cannot change any output byte. A
// negative intermediate would sign-extend into a huge uint64 and fail
// the < 256 check.
func TestEncodeBytesNeverClamp(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive RGB cube sweep")
	}
	for r := 0; r < 256; r++ {
		for g := 0; g < 256; g++ {
			for b := 0; b < 256; b++ {
				p := uint32(r)<<16 | uint32(g)<<8 | uint32(b)
				if y := lumaByte(p); y < 16 || y > 235 {
					t.Fatalf("luma %d out of range for rgb(%d,%d,%d)", y, r, g, b)
				}
				if v := vByte(p); v > 255 {
					t.Fatalf("V %d out of range for rgb(%d,%d,%d)", v, r, g, b)
				}
				if u := uByte(p); u > 255 {
					t.Fatalf("U %d out of range for rgb(%d,%d,%d)", u, r, g, b)
				}
			}
		}
	}
}

func FuzzYUVConversion(f *testing.F) {
	f.Add([]byte{128, 128, 128, 128}, []byte{128, 128})
	f.Add([]byte{0, 255, 16, 235}, []byte{255, 0})
	f.Fuzz(func(t *testing.T, y, vu []byte) {
		const w, h = 4, 4
		img := NewYUV(w, h)
		copy(img.Y, y)
		copy(img.VU, vu)
		out := YUVToARGB(img)
		if out.Width != w || out.Height != h {
			t.Fatal("dims wrong")
		}
		for _, p := range out.Pix {
			if p>>24 != 0xFF {
				t.Fatalf("non-opaque pixel %#x", p)
			}
		}
	})
}

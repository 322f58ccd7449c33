package preproc

import (
	"testing"

	"aitax/internal/imaging"
	"aitax/internal/tensor"
)

// fuzzScene builds an ARGB image of the given dimensions with pixels
// drawn cyclically from the fuzz payload (or a fixed pattern when the
// payload is empty), so arbitrary channel bytes reach the kernels.
func fuzzScene(w, h int, pix []byte) *imaging.ARGBImage {
	src := imaging.NewARGB(w, h)
	for i := range src.Pix {
		var b0, b1, b2, b3 byte
		if len(pix) > 0 {
			b0, b1, b2, b3 = pix[(i*4)%len(pix)], pix[(i*4+1)%len(pix)],
				pix[(i*4+2)%len(pix)], pix[(i*4+3)%len(pix)]
		} else {
			b0, b1, b2, b3 = byte(i), byte(i*37+11), byte(i*53+3), byte(i*31+7)
		}
		src.Pix[i] = uint32(b0)<<24 | uint32(b1)<<16 | uint32(b2)<<8 | uint32(b3)
	}
	return src
}

// FuzzNormalizeSwarBitExact checks the unrolled normalize kernel against
// the scalar channel-by-channel definition over fuzzed pixels, widths
// covering every w%4 tail lane, and a couple of parameter sets.
func FuzzNormalizeSwarBitExact(f *testing.F) {
	f.Add(uint8(0), uint8(0), []byte{0xFF, 0x80, 0x10, 0x00})
	f.Add(uint8(6), uint8(2), []byte{})
	f.Add(uint8(13), uint8(4), []byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, w8, h8 uint8, pix []byte) {
		w := 1 + int(w8%19) // widths 1..19: all 4-pixel tail lanes
		h := 1 + int(h8%5)
		src := fuzzScene(w, h, pix)
		for _, ms := range [][2]float64{{127.5, 127.5}, {0, 255}} {
			out := Normalize(src, ms[0], ms[1])
			idx := 0
			for _, p := range src.Pix {
				r, g, b := imaging.RGB(p)
				for c, ch := range [3]uint8{r, g, b} {
					want := float32((float64(ch) - ms[0]) / ms[1])
					if out.F32[idx+c] != want {
						t.Fatalf("%dx%d mean=%v: channel %d of pixel %d differs", w, h, ms, c, idx/3)
					}
				}
				idx += 3
			}
		}
	})
}

// FuzzQuantizeSwarBitExact checks the unrolled quantize kernel (both the
// uint8 and int8 paths) against the scalar QuantParams definition.
func FuzzQuantizeSwarBitExact(f *testing.F) {
	f.Add(uint8(0), uint8(0), []byte{0xFF, 0x80, 0x10, 0x00})
	f.Add(uint8(6), uint8(2), []byte{})
	f.Add(uint8(13), uint8(4), []byte{9, 8, 7, 6, 5})
	f.Fuzz(func(t *testing.T, w8, h8 uint8, pix []byte) {
		w := 1 + int(w8%19)
		h := 1 + int(h8%5)
		src := fuzzScene(w, h, pix)
		q := tensor.QuantParams{Scale: 0.0078125, ZeroPoint: 128}
		for _, dt := range []tensor.DType{tensor.UInt8, tensor.Int8} {
			out := QuantizeInput(src, dt, q)
			idx := 0
			for _, p := range src.Pix {
				r, g, b := imaging.RGB(p)
				for c, ch := range [3]uint8{r, g, b} {
					want := byte(q.Quantize(float64(ch), dt))
					var got byte
					if dt == tensor.UInt8 {
						got = out.U8[idx+c]
					} else {
						got = byte(out.I8[idx+c])
					}
					if got != want {
						t.Fatalf("%dx%d %v: channel %d of pixel %d differs", w, h, dt, c, idx/3)
					}
				}
				idx += 3
			}
		}
	})
}

// TestConvertKernelsAllTailLanes sweeps widths 1..19 (every 4-pixel tail
// lane), pinning the unrolled normalize and quantize kernels against
// their scalar definitions.
func TestConvertKernelsAllTailLanes(t *testing.T) {
	q := tensor.QuantParams{Scale: 0.02, ZeroPoint: 3}
	for w := 1; w <= 19; w++ {
		src := fuzzScene(w, 6, nil)
		norm := Normalize(src, 127.5, 127.5)
		u8 := QuantizeInput(src, tensor.UInt8, q)
		i8 := QuantizeInput(src, tensor.Int8, q)
		idx := 0
		for _, p := range src.Pix {
			r, g, b := imaging.RGB(p)
			for c, ch := range [3]uint8{r, g, b} {
				if norm.F32[idx+c] != float32((float64(ch)-127.5)/127.5) {
					t.Fatalf("normalize w=%d differs", w)
				}
				if u8.U8[idx+c] != byte(q.Quantize(float64(ch), tensor.UInt8)) {
					t.Fatalf("quantize u8 w=%d differs", w)
				}
				if byte(i8.I8[idx+c]) != byte(q.Quantize(float64(ch), tensor.Int8)) {
					t.Fatalf("quantize i8 w=%d differs", w)
				}
			}
			idx += 3
		}
	}
}

// FuzzTokenize drives the WordPiece tokenizer with arbitrary text: it
// must never panic, always produce exactly maxLen ids, and every id must
// exist in the vocabulary.
func FuzzTokenize(f *testing.F) {
	f.Add("the camera quality is great", 32)
	f.Add("", 2)
	f.Add("zzzzzz unknown-token 🙂", 16)
	f.Add("a b c d e f g h i j k l m n o p", 8)
	vocab := BasicVocab()
	valid := map[int]bool{}
	for _, id := range vocab {
		valid[id] = true
	}
	f.Fuzz(func(t *testing.T, text string, maxLen int) {
		if maxLen < 2 || maxLen > 512 {
			maxLen = 2 + (abs(maxLen) % 511)
		}
		ids := Tokenize(text, vocab, maxLen)
		if len(ids) != maxLen {
			t.Fatalf("len = %d, want %d", len(ids), maxLen)
		}
		for _, id := range ids {
			if !valid[id] {
				t.Fatalf("id %d not in vocabulary", id)
			}
		}
		if ids[0] != vocab["[CLS]"] {
			t.Fatal("missing [CLS]")
		}
	})
}

func abs(v int) int {
	if v < 0 {
		// Guard MinInt overflow.
		if v == -v {
			return 0
		}
		return -v
	}
	return v
}

// FuzzResize drives bilinear resize with arbitrary dimensions: no
// panics, correct output size, pixels stay valid.
func FuzzResize(f *testing.F) {
	f.Add(uint8(10), uint8(10))
	f.Add(uint8(1), uint8(255))
	src := imaging.SyntheticScene(37, 23, 1)
	f.Fuzz(func(t *testing.T, w, h uint8) {
		dw, dh := int(w)+1, int(h)+1
		dst := ResizeBilinear(src, dw, dh)
		if dst.Width != dw || dst.Height != dh {
			t.Fatalf("dims = %dx%d, want %dx%d", dst.Width, dst.Height, dw, dh)
		}
	})
}

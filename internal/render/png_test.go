package render

import (
	"bytes"
	"image"
	"image/color"
	"image/png"
	"math"
	"runtime"
	"sync"
	"testing"

	"chatvis/internal/datagen"
	"chatvis/internal/filters"
	"chatvis/internal/par"
)

// serialImage is the reference framebuffer conversion: one SetRGBA per
// pixel through to8, in row-major order. Framebuffer.Image must produce
// the same Pix.
func serialImage(fb *Framebuffer) *image.RGBA {
	img := image.NewRGBA(image.Rect(0, 0, fb.W, fb.H))
	for y := 0; y < fb.H; y++ {
		for x := 0; x < fb.W; x++ {
			c := fb.Color[y*fb.W+x]
			img.SetRGBA(x, y, color.RGBA{
				R: to8(c.R), G: to8(c.G), B: to8(c.B), A: 255,
			})
		}
	}
	return img
}

// isoFrame renders a shaded, solid-colour isosurface of the
// Marschner-Lobb volume on a white background.
func isoFrame(t *testing.T, w, h int) *Framebuffer {
	t.Helper()
	vol := datagen.MarschnerLobb(40)
	surf, err := filters.Contour(vol, "var0", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	filters.ComputePointNormals(surf)
	r := NewRenderer()
	r.Background = White
	r.AddActor(NewActor(surf))
	r.ResetCamera()
	return r.RenderFB(w, h)
}

// edgeFrame is a framebuffer whose colors hit every branch of to8:
// below 0, above 1, exactly 0 and 1, NaN, ±Inf and the rounding path.
func edgeFrame() *Framebuffer {
	vals := []float64{-1, math.Copysign(0, -1), 0, 1e-9, 0.5 / 255, 0.5, 1 - 1e-9, 1, 1.5, math.NaN(), math.Inf(1), math.Inf(-1)}
	fb := NewFramebuffer(37, 23, Black)
	for i := range fb.Color {
		fb.Color[i] = Color{R: vals[i%len(vals)], G: vals[(i/3)%len(vals)], B: vals[(i/7)%len(vals)]}
	}
	return fb
}

// TestImageMatchesSerialConversion pins the parallel row conversion to
// the serial SetRGBA reference, byte for byte, at 1 and 4 workers.
func TestImageMatchesSerialConversion(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer func() {
		runtime.GOMAXPROCS(prev)
		par.SetWorkers(0)
	}()
	frames := map[string]*Framebuffer{"iso": isoFrame(t, 320, 180), "to8-branches": edgeFrame()}
	for name, fb := range frames {
		want := serialImage(fb)
		for _, w := range []int{1, 4} {
			par.SetWorkers(w)
			got := fb.Image()
			if got.Rect != want.Rect || got.Stride != want.Stride {
				t.Fatalf("%s workers=%d: rect %v stride %d, want %v stride %d", name, w, got.Rect, got.Stride, want.Rect, want.Stride)
			}
			if !bytes.Equal(got.Pix, want.Pix) {
				t.Fatalf("%s workers=%d: Pix differs from the serial conversion", name, w)
			}
		}
	}
}

// TestSavePNGRoundTripPixels requires the encoded screenshot to decode
// to exactly the pixels that were encoded.
func TestSavePNGRoundTripPixels(t *testing.T) {
	img := isoFrame(t, 320, 180).Image()
	path := t.TempDir() + "/iso.png"
	if err := SavePNG(path, img); err != nil {
		t.Fatal(err)
	}
	got, err := LoadPNG(path)
	if err != nil {
		t.Fatal(err)
	}
	rgba, ok := got.(*image.RGBA)
	if !ok {
		t.Fatalf("decoded %T, want *image.RGBA", got)
	}
	if rgba.Rect != img.Rect || !bytes.Equal(rgba.Pix, img.Pix) {
		t.Fatal("decoded pixels differ from the encoded image")
	}
}

// TestScreenshotEncodeDeterministic requires the pooled encoder to give
// the same bytes for the same image every time, including from many
// goroutines at once (content addressing and store hits rely on it),
// and the same bytes as a fresh unpooled encoder at the same level.
func TestScreenshotEncodeDeterministic(t *testing.T) {
	img := isoFrame(t, 320, 180).Image()
	encode := func() []byte {
		var b bytes.Buffer
		if err := screenshotEncoder.Encode(&b, img); err != nil {
			t.Error(err)
		}
		return b.Bytes()
	}
	want := encode()
	if again := encode(); !bytes.Equal(again, want) {
		t.Fatal("second encode of the same image gave different bytes")
	}
	var fresh bytes.Buffer
	if err := (&png.Encoder{CompressionLevel: png.BestSpeed}).Encode(&fresh, img); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fresh.Bytes(), want) {
		t.Fatal("pooled encoder differs from an unpooled BestSpeed encoder")
	}

	const n = 8
	outs := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i] = encode()
		}(i)
	}
	wg.Wait()
	for i, out := range outs {
		if !bytes.Equal(out, want) {
			t.Fatalf("concurrent encode %d gave different bytes", i)
		}
	}
}

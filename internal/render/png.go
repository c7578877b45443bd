package render

import (
	"fmt"
	"image"
	"image/png"
	"os"
	"path/filepath"
	"sync"
)

// screenshotEncoder is the one PNG encoder every screenshot goes
// through. BestSpeed was chosen by measurement on one 1920x1080 frame of
// each Table II scenario: it encodes 2.6x faster than the default level
// in total for files 18–43 % larger, and decoded pixels are identical
// at every level. The encoder holds no per-call state beyond what the
// pool hands out, so concurrent SavePNG calls share it safely and the
// same image always encodes to the same bytes.
var screenshotEncoder = png.Encoder{
	CompressionLevel: png.BestSpeed,
	BufferPool:       &encoderPool{},
}

// encoderPool is the png.EncoderBufferPool that recycles the encoder's
// scratch buffers (row buffers and the deflate writer) between
// screenshots.
type encoderPool struct{ p sync.Pool }

func (e *encoderPool) Get() *png.EncoderBuffer {
	b, _ := e.p.Get().(*png.EncoderBuffer)
	return b
}

func (e *encoderPool) Put(b *png.EncoderBuffer) { e.p.Put(b) }

// SavePNG writes an image to the given path, creating parent directories
// as needed.
func SavePNG(path string, img image.Image) error {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("render: creating output directory: %w", err)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := screenshotEncoder.Encode(f, img); err != nil {
		return fmt.Errorf("render: encoding png: %w", err)
	}
	return f.Sync()
}

// LoadPNG reads a PNG image from disk.
func LoadPNG(path string) (image.Image, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	img, err := png.Decode(f)
	if err != nil {
		return nil, fmt.Errorf("render: decoding %s: %w", path, err)
	}
	return img, nil
}

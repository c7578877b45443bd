package llm_test

import (
	"testing"

	"chatvis/internal/eval"
	"chatvis/internal/llm"
)

// FuzzParseIntent feeds arbitrary text to the intent parser, seeded
// with every scenario prompt at the paper's size and at a two-digit
// size. The parser must never panic, and the resolution it reads must
// be all or nothing: both dimensions set, each 2–5 digits, or both 0.
func FuzzParseIntent(f *testing.F) {
	for _, s := range eval.Scenarios() {
		f.Add(s.UserPrompt(1920, 1080))
		f.Add(s.UserPrompt(160, 90))
	}
	f.Fuzz(func(t *testing.T, text string) {
		spec := llm.ParseIntent(text)
		if (spec.Width == 0) != (spec.Height == 0) {
			t.Fatalf("half a resolution: %dx%d", spec.Width, spec.Height)
		}
		for _, v := range []int{spec.Width, spec.Height} {
			if v != 0 && (v < 10 || v > 99999) {
				t.Fatalf("dimension %d is not 2–5 digits (%dx%d)", v, spec.Width, spec.Height)
			}
		}
	})
}

package render

import (
	"testing"

	"chatvis/internal/datagen"
	"chatvis/internal/filters"
	"chatvis/internal/vmath"
)

// TestFlatPropEdgeOnStaysVisible renders the slice-then-contour scenario
// (a y-z slice of the 100³ Marschner-Lobb volume, contoured at 0.5, red
// lines, camera looking down +x) at every slice offset from -0.20 to
// 0.20 in hundredths. The contour lines all lie in one x-plane, so their
// depth extent is zero: the clipping range must still enclose them, or
// the frame comes out blank.
func TestFlatPropEdgeOnStaysVisible(t *testing.T) {
	vol := datagen.MarschnerLobb(100)
	for step := -20; step <= 20; step++ {
		x := float64(step) / 100
		slice, err := filters.Slice(vol, vmath.NewPlane(vmath.V(x, 0, 0), vmath.V(1, 0, 0)))
		if err != nil {
			t.Fatal(err)
		}
		lines, err := filters.ContourLines(slice, "var0", 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if len(lines.Lines) == 0 {
			t.Fatalf("x=%.2f: the contour is empty; the case tests nothing", x)
		}
		r := NewRenderer()
		r.Background = White
		a := r.AddActor(NewActor(lines))
		a.SolidColor = Color{R: 1}
		a.LineWidth = 2
		b := r.VisibleBounds()
		r.Camera.LookFrom(vmath.V(1, 0, 0), vmath.V(0, 0, 1), b)
		r.Camera.ResetToBounds(b)
		img := r.Render(160, 90)
		fg := 0
		for i := 0; i < len(img.Pix); i += 4 {
			if img.Pix[i] != 255 || img.Pix[i+1] != 255 || img.Pix[i+2] != 255 {
				fg++
			}
		}
		if fg == 0 {
			t.Errorf("x=%.2f: blank frame, the flat contour was clipped away", x)
		}
	}
}

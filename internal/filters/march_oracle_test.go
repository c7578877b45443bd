package filters

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"chatvis/internal/data"
	"chatvis/internal/datagen"
	"chatvis/internal/vmath"
)

// referenceMarch is the exhaustive marching-tetrahedra oracle for
// ImageData: one serial builder visits every Kuhn tet of every cube in
// i-fastest cube order, with no cube culling and no chunked merge. The
// production sweep must reproduce its PolyData bit for bit.
func referenceMarch(im *data.ImageData, level []float64, iso float64) *data.PolyData {
	b := surfaceArena.Get()
	defer surfaceArena.Put(b)
	b.bind(im)
	nx, ny, nz := im.Dims[0], im.Dims[1], im.Dims[2]
	var corner [8]int
	for k := 0; k+1 < nz; k++ {
		for j := 0; j+1 < ny; j++ {
			for i := 0; i+1 < nx; i++ {
				for c := range corner {
					corner[c] = im.Index(i+c&1, j+(c>>1)&1, k+(c>>2)&1)
				}
				for _, t := range kuhnTets {
					b.marchTet([4]int{corner[t[0]], corner[t[1]], corner[t[2]], corner[t[3]]}, level, iso)
				}
			}
		}
	}
	return b.materialize(im)
}

// referenceSlice is the oracle's slice: the plane evaluated per point,
// then the exhaustive sweep at level 0.
func referenceSlice(im *data.ImageData, plane vmath.Plane) *data.PolyData {
	level := make([]float64, im.NumPoints())
	for i := range level {
		level[i] = plane.Eval(im.Point(i))
	}
	return referenceMarch(im, level, 0)
}

// samePolyBits fails unless got equals ref bit for bit: same point and
// attribute bits (NaN payloads included, which reflect.DeepEqual cannot
// compare) and the same cells in the same order.
func samePolyBits(t *testing.T, name string, ref, got *data.PolyData) {
	t.Helper()
	if len(ref.Pts) != len(got.Pts) {
		t.Fatalf("%s: %d points, reference has %d", name, len(got.Pts), len(ref.Pts))
	}
	for i := range ref.Pts {
		r, g := ref.Pts[i], got.Pts[i]
		if !sameBits(r.X, g.X) || !sameBits(r.Y, g.Y) || !sameBits(r.Z, g.Z) {
			t.Fatalf("%s: point %d is %v, reference %v", name, i, g, r)
		}
	}
	for _, cells := range [][2][][]int{{ref.Polys, got.Polys}, {ref.Lines, got.Lines}, {ref.Verts, got.Verts}} {
		r, g := cells[0], cells[1]
		if len(r) != len(g) {
			t.Fatalf("%s: %d cells, reference has %d", name, len(g), len(r))
		}
		for i := range r {
			if !slices.Equal(r[i], g[i]) {
				t.Fatalf("%s: cell %d is %v, reference %v", name, i, g[i], r[i])
			}
		}
	}
	if ref.Points.Len() != got.Points.Len() {
		t.Fatalf("%s: %d point arrays, reference has %d", name, got.Points.Len(), ref.Points.Len())
	}
	for fi := 0; fi < ref.Points.Len(); fi++ {
		rf, gf := ref.Points.At(fi), got.Points.At(fi)
		if rf.Name != gf.Name || rf.NumComponents != gf.NumComponents || len(rf.Data) != len(gf.Data) {
			t.Fatalf("%s: array %d is %q/%d×%d, reference %q/%d×%d", name, fi,
				gf.Name, gf.NumComponents, len(gf.Data), rf.Name, rf.NumComponents, len(rf.Data))
		}
		for i := range rf.Data {
			if !sameBits(rf.Data[i], gf.Data[i]) {
				t.Fatalf("%s: array %q value %d is %v, reference %v", name, rf.Name, i, gf.Data[i], rf.Data[i])
			}
		}
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// scalarVolume wraps values as the "s" point array of an nx×ny×nz unit
// grid, with a second 3-component array so attribute interpolation is
// covered too.
func scalarVolume(nx, ny, nz int, values []float64) *data.ImageData {
	im := data.NewImageData(nx, ny, nz, vmath.V(-0.5, 0.25, 1), vmath.V(0.5, 0.25, 0.125))
	s := data.NewField("s", 1, im.NumPoints())
	copy(s.Data, values)
	im.Points.Add(s)
	v := data.NewField("v", 3, im.NumPoints())
	for i := 0; i < im.NumPoints(); i++ {
		v.SetVec3(i, im.Point(i))
	}
	im.Points.Add(v)
	return im
}

// checkContourOracle compares Contour against the exhaustive sweep at
// 1 and 4 workers.
func checkContourOracle(t *testing.T, name string, im *data.ImageData, field string, iso float64) {
	t.Helper()
	ref := referenceMarch(im, im.Points.Get(field).Data, iso)
	for _, w := range []int{1, 4} {
		withWorkers(t, w)
		got, err := Contour(im, field, iso)
		if err != nil {
			t.Fatal(err)
		}
		samePolyBits(t, fmt.Sprintf("%s workers=%d", name, w), ref, got)
	}
}

// TestMarchImageCullingOracle pins the cube-culling sweep against the
// exhaustive all-tets reference: identical PolyData bits on smooth data,
// isovalues sitting exactly on grid values, a constant field, NaN
// levels, and slice planes through grid nodes.
func TestMarchImageCullingOracle(t *testing.T) {
	ml := datagen.MarschnerLobb(40)
	f := ml.Points.Get("var0")
	for _, iso := range []float64{0.1, 0.35, 0.5, 0.75, 0.95, -1, 2} {
		checkContourOracle(t, fmt.Sprintf("ml40 iso=%v", iso), ml, "var0", iso)
	}
	// Isovalues equal to sampled values: corners exactly at iso count as
	// inside, on both the culling and the per-tet predicate.
	for _, idx := range []int{0, 777, ml.Index(20, 20, 20), ml.NumPoints() - 1} {
		iso := f.Data[idx]
		checkContourOracle(t, fmt.Sprintf("ml40 iso=grid[%d]", idx), ml, "var0", iso)
	}

	n := 7 * 6 * 5
	constant := make([]float64, n)
	for i := range constant {
		constant[i] = 0.25
	}
	cvol := scalarVolume(7, 6, 5, constant)
	for _, iso := range []float64{0, 0.25, 1} {
		checkContourOracle(t, fmt.Sprintf("constant iso=%v", iso), cvol, "s", iso)
	}

	withNaN := make([]float64, n)
	for i := range withNaN {
		withNaN[i] = math.Sin(float64(i) * 0.37)
		if i%11 == 3 {
			withNaN[i] = math.NaN()
		}
	}
	nvol := scalarVolume(7, 6, 5, withNaN)
	for _, iso := range []float64{-0.5, 0, 0.3, math.NaN()} {
		checkContourOracle(t, fmt.Sprintf("nan-field iso=%v", iso), nvol, "s", iso)
	}

	// Axis planes through grid nodes give level exactly 0 on a whole
	// layer of points; the oblique plane crosses cubes at every height.
	node := ml.Point(ml.Index(13, 27, 9))
	planes := map[string]vmath.Plane{
		"x-node":  vmath.NewPlane(node, vmath.V(1, 0, 0)),
		"y-node":  vmath.NewPlane(node, vmath.V(0, 1, 0)),
		"z-node":  vmath.NewPlane(node, vmath.V(0, 0, -1)),
		"x-first": vmath.NewPlane(ml.Point(0), vmath.V(1, 0, 0)),
		"oblique": vmath.NewPlane(vmath.V(0.1, -0.2, 0.05), vmath.V(1, 0.4, -0.7)),
	}
	for name, plane := range planes {
		ref := referenceSlice(ml, plane)
		if len(ref.Polys) == 0 && name != "x-first" {
			t.Fatalf("slice %s: reference is empty; the case tests nothing", name)
		}
		for _, w := range []int{1, 4} {
			withWorkers(t, w)
			got, err := Slice(ml, plane)
			if err != nil {
				t.Fatal(err)
			}
			samePolyBits(t, fmt.Sprintf("slice %s workers=%d", name, w), ref, got)
		}
	}
}

// FuzzMarchImageCulling compares Contour on a small random ImageData
// against the exhaustive sweep. The input decodes to dims 2–6 per axis
// and one level per point, drawn from a small palette that includes NaN,
// ±Inf and the isovalue itself, so every corner classification and
// degenerate edge the culling test can meet shows up.
func FuzzMarchImageCulling(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{4, 3, 2, 9, 9, 9, 0, 0, 0, 255, 128, 64, 32, 16, 8, 4, 2, 1})
	f.Add([]byte{1, 1, 1, 200, 201, 202, 203, 204, 205, 206, 207})
	palette := []float64{0, 0.5, 1, -0.25, 0.5, math.NaN(), math.Inf(1), math.Inf(-1)}
	const iso = 0.5
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 3 {
			return
		}
		nx, ny, nz := 2+int(in[0])%5, 2+int(in[1])%5, 2+int(in[2])%5
		raw := in[3:]
		values := make([]float64, nx*ny*nz)
		for i := range values {
			var b byte
			if len(raw) > 0 {
				b = raw[i%len(raw)]
			}
			if b < 128 {
				values[i] = palette[int(b)%len(palette)]
			} else {
				values[i] = float64(b-128) / 64
			}
		}
		im := scalarVolume(nx, ny, nz, values)
		checkContourOracle(t, fmt.Sprintf("fuzz %dx%dx%d", nx, ny, nz), im, "s", iso)
	})
}

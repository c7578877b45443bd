package llm

import (
	"context"
	"strings"
	"testing"

	"chatvis/internal/errext"
)

// The paper's five user prompts, verbatim (§IV).
const (
	PromptIso = `Please generate a ParaView Python script for the following operations. Read in the file named ml-100.vtk. Generate an isosurface of the variable var0 at value 0.5. Save a screenshot of the result in the filename ml-iso-screenshot.png. The rendered view and saved screenshot should be 1920 x 1080 pixels.`

	PromptSlice = `Please generate a ParaView Python script for the following operations. Read in the file named 'ml-100.vtk'. Slice the volume in a plane parallel to the y-z plane at x=0. Take a contour through the slice at the value 0.5. Color the contour red. Rotate the view to look at the +x direction. Save a screenshot of the result in the filename 'ml-slice-iso-screenshot.png'. The rendered view and saved screenshot should be 1920 x 1080 pixels.`

	PromptVolume = `Please generate a ParaView Python script for the following operations. Read in the file named 'ml-100.vtk'. Generate a volume rendering using the default transfer function. Rotate the view to an isometric direction. Save a screenshot of the result in the filename 'ml-dvr-screenshot.png'. The rendered view and saved screenshot should be 1920 x 1080 pixels.`

	PromptDelaunay = `Please generate a ParaView Python script for the following operations. Read in the file named 'can_points.ex2'. Generate a 3d Delaunay triangulation of the dataset. Clip the data with a y-z plane at x=0, keeping the -x half of the data and removing the +x half. Render the image as a wireframe. View the result in an isometric view. Save a screenshot of the result in the filename 'points-surf-clip-screenshot.png'. The rendered view and saved screenshot should be 1920 x 1080 pixels.`

	PromptStream = `Please generate a ParaView Python script for the following operations. Read in the file named 'disk.ex2'. Trace streamlines of the V data array seeded from a default point cloud. Render the streamlines with tubes. Add cone glyphs to the streamlines. Color the streamlines and glyphs by the Temp data array. View the result in the +X direction. Save a screenshot of the result in the filename 'stream-glyph-screenshot.png'. The rendered view and saved screenshot should be 1920 x 1080 pixels.`
)

func TestParseIntentIso(t *testing.T) {
	spec := ParseIntent(PromptIso)
	if spec.InputFile != "ml-100.vtk" {
		t.Errorf("file = %q", spec.InputFile)
	}
	op, ok := spec.FindOp(OpIsosurface)
	if !ok || op.Array != "var0" || op.Value != 0.5 {
		t.Errorf("iso op = %+v ok=%v", op, ok)
	}
	if spec.Screenshot != "ml-iso-screenshot.png" {
		t.Errorf("screenshot = %q", spec.Screenshot)
	}
	if spec.Width != 1920 || spec.Height != 1080 {
		t.Errorf("resolution = %dx%d", spec.Width, spec.Height)
	}
	if spec.TaskID() != "isosurface" {
		t.Errorf("task = %q", spec.TaskID())
	}
}

func TestParseIntentSlice(t *testing.T) {
	spec := ParseIntent(PromptSlice)
	sl, ok := spec.FindOp(OpSlice)
	if !ok || sl.Axis != "x" || sl.Offset != 0 {
		t.Errorf("slice op = %+v ok=%v", sl, ok)
	}
	ct, ok := spec.FindOp(OpContourLines)
	if !ok || ct.Value != 0.5 {
		t.Errorf("contour op = %+v ok=%v", ct, ok)
	}
	if spec.SolidColor != "red" {
		t.Errorf("solid color = %q", spec.SolidColor)
	}
	if spec.ViewDirection != "+X" {
		t.Errorf("view = %q", spec.ViewDirection)
	}
	if spec.TaskID() != "slice-contour" {
		t.Errorf("task = %q", spec.TaskID())
	}
}

func TestParseIntentVolume(t *testing.T) {
	spec := ParseIntent(PromptVolume)
	if !spec.HasOp(OpVolumeRender) {
		t.Error("volume op missing")
	}
	if spec.ViewDirection != "isometric" {
		t.Errorf("view = %q", spec.ViewDirection)
	}
}

func TestParseIntentDelaunay(t *testing.T) {
	spec := ParseIntent(PromptDelaunay)
	if !spec.HasOp(OpDelaunay) {
		t.Error("delaunay op missing")
	}
	cl, ok := spec.FindOp(OpClip)
	if !ok || cl.Axis != "x" || !cl.KeepNegative {
		t.Errorf("clip op = %+v ok=%v", cl, ok)
	}
	if !spec.Wireframe {
		t.Error("wireframe missing")
	}
	if spec.ViewDirection != "isometric" {
		t.Errorf("view = %q", spec.ViewDirection)
	}
	if spec.InputFile != "can_points.ex2" {
		t.Errorf("file = %q", spec.InputFile)
	}
}

func TestParseIntentStream(t *testing.T) {
	spec := ParseIntent(PromptStream)
	st, ok := spec.FindOp(OpStreamlines)
	if !ok || st.Array != "V" {
		t.Errorf("stream op = %+v ok=%v", st, ok)
	}
	if !spec.HasOp(OpTube) {
		t.Error("tube missing")
	}
	gl, ok := spec.FindOp(OpGlyph)
	if !ok || gl.GlyphType != "Cone" {
		t.Errorf("glyph = %+v ok=%v", gl, ok)
	}
	if spec.ColorArray != "Temp" {
		t.Errorf("color array = %q", spec.ColorArray)
	}
	if spec.ViewDirection != "+X" {
		t.Errorf("view = %q", spec.ViewDirection)
	}
}

func TestStepPromptRoundTrip(t *testing.T) {
	// The generated prompt must parse back to an equivalent spec — the
	// two-stage pipeline depends on it.
	for name, prompt := range map[string]string{
		"iso": PromptIso, "slice": PromptSlice, "volume": PromptVolume,
		"delaunay": PromptDelaunay, "stream": PromptStream,
	} {
		orig := ParseIntent(prompt)
		rendered := RenderStepPrompt(orig)
		again := ParseIntent(rendered)
		if orig.TaskID() != again.TaskID() {
			t.Errorf("%s: task %q -> %q after round trip\nprompt:\n%s",
				name, orig.TaskID(), again.TaskID(), rendered)
		}
		if orig.InputFile != again.InputFile {
			t.Errorf("%s: file %q -> %q", name, orig.InputFile, again.InputFile)
		}
		if orig.Screenshot != again.Screenshot {
			t.Errorf("%s: shot %q -> %q", name, orig.Screenshot, again.Screenshot)
		}
		if orig.ViewDirection != again.ViewDirection {
			t.Errorf("%s: view %q -> %q", name, orig.ViewDirection, again.ViewDirection)
		}
		if len(orig.Ops) != len(again.Ops) {
			t.Errorf("%s: ops %d -> %d\nprompt:\n%s", name, len(orig.Ops), len(again.Ops), rendered)
		}
	}
}

func TestModelRegistry(t *testing.T) {
	for _, name := range PaperModels() {
		m, err := NewModel(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if m.Name() != name {
			t.Errorf("name = %q", m.Name())
		}
	}
	if _, err := NewModel("gpt-99"); err == nil {
		t.Error("unknown model should error")
	}
	names := ModelNames()
	if len(names) < 6 {
		t.Errorf("models = %v", names)
	}
}

func TestWriterCanonicalIsGrounded(t *testing.T) {
	spec := ParseIntent(PromptStream)
	p := simProfiles["gpt-4"]
	grounded := WriteScript(spec, p, FullGrounding())
	if strings.Contains(grounded, "glyph.Scalars") {
		t.Error("grounded generation must not hallucinate Glyph.Scalars")
	}
	if !strings.Contains(grounded, "OrientationArray") {
		t.Error("grounded generation should use the canonical glyph API")
	}
	// Detail slip present (the loop's work).
	if !strings.Contains(grounded, "tube.NumberOfSides") {
		t.Error("expected the NumberOfSides detail slip under grounding")
	}
	ungrounded := WriteScript(spec, p, nil)
	if !strings.Contains(ungrounded, "glyph.Scalars") {
		t.Error("ungrounded gpt-4 should hallucinate Glyph.Scalars")
	}
	if !strings.Contains(ungrounded, "Show(tube, 'RenderView1')") {
		t.Error("ungrounded gpt-4 should use the view before creating it")
	}
}

func TestWriterSyntaxDefects(t *testing.T) {
	spec := ParseIntent(PromptIso)
	cases := map[string]string{
		"gpt-3.5-turbo": "paren",
		"llama3-8b":     "fence",
		"codellama-7b":  "indent",
		"codegemma":     "string",
	}
	for model, defect := range cases {
		s := WriteScript(spec, simProfiles[model], nil)
		switch defect {
		case "fence":
			if !strings.HasPrefix(s, "```") {
				t.Errorf("%s: expected markdown fences", model)
			}
		case "paren":
			if strings.Contains(s, "Show(reader, renderView1)") &&
				!strings.Contains(s, "Show(reader, renderView1\n") {
				// the closing paren must be gone somewhere
			}
			if s == WriteScript(spec, simProfiles["oracle"], nil) {
				t.Errorf("%s: no defect injected", model)
			}
		default:
			if s == WriteScript(spec, simProfiles["oracle"], nil) {
				t.Errorf("%s: no defect injected", model)
			}
		}
	}
}

func TestRepairAttributeRename(t *testing.T) {
	script := "tube = Tube(Input=st)\ntube.NumberOfSides = 12\n"
	reports := []errext.ErrorReport{{
		Kind:    "AttributeError",
		Message: "'Tube' object has no attribute 'NumberOfSides'",
		Line:    2,
	}}
	fixed := Repair(script, reports, 2)
	if !strings.Contains(fixed, "tube.NumberofSides = 12") {
		t.Errorf("fixed = %q", fixed)
	}
	// Skill 1 deletes instead.
	deleted := Repair(script, reports, 1)
	if strings.Contains(deleted, "NumberOfSides") {
		t.Errorf("skill-1 repair should delete: %q", deleted)
	}
	// Skill 0 is inert.
	if Repair(script, reports, 0) != script {
		t.Error("skill-0 repair must not modify")
	}
}

func TestRepairDeletesInventedGlyphAttrs(t *testing.T) {
	script := "glyph = Glyph(Input=st, GlyphType='Cone')\nglyph.Scalars = ['POINTS', 'Temp']\nglyph.ScaleFactor = 1.0\n"
	reports := []errext.ErrorReport{{
		Kind:    "AttributeError",
		Message: "'Glyph' object has no attribute 'Scalars'",
		Line:    2,
	}}
	fixed := Repair(script, reports, 2)
	if strings.Contains(fixed, "Scalars") {
		t.Errorf("fixed = %q", fixed)
	}
	if !strings.Contains(fixed, "ScaleFactor") {
		t.Error("unrelated lines must survive")
	}
}

func TestRepairColorByRetarget(t *testing.T) {
	script := `contour1 = Contour(Input=reader)
contour1Display = Show(contour1, renderView1)
ColorBy(contour1, None)
`
	reports := []errext.ErrorReport{{
		Kind:    "AttributeError",
		Message: "'Contour' object has no attribute 'UseSeparateColorMap'",
		Line:    3,
	}}
	fixed := Repair(script, reports, 2)
	if !strings.Contains(fixed, "ColorBy(contour1Display, None)") {
		t.Errorf("fixed = %q", fixed)
	}
}

func TestRepairSyntaxFence(t *testing.T) {
	script := "```python\nx = 1\n```\n"
	reports := []errext.ErrorReport{{Kind: "SyntaxError", Message: "invalid syntax", Line: 1}}
	fixed := Repair(script, reports, 1)
	if strings.Contains(fixed, "```") {
		t.Errorf("fixed = %q", fixed)
	}
}

func TestRepairSyntaxParen(t *testing.T) {
	script := "d = Show(reader, view\nprint(1)\n"
	reports := []errext.ErrorReport{{Kind: "SyntaxError", Message: "'(' was never closed", Line: 1}}
	fixed := Repair(script, reports, 2)
	if !strings.Contains(fixed, "Show(reader, view)") {
		t.Errorf("fixed = %q", fixed)
	}
}

func TestRepairShowStringView(t *testing.T) {
	script := "tubeDisplay = Show(tube, 'RenderView1')\n"
	reports := []errext.ErrorReport{{
		Kind:    "TypeError",
		Message: "argument must be a render view proxy, not str",
		Line:    1,
	}}
	fixed := Repair(script, reports, 2)
	if !strings.Contains(fixed, "GetActiveViewOrCreate") ||
		strings.Contains(fixed, "'RenderView1'") && !strings.Contains(fixed, "GetActiveViewOrCreate('RenderView')") {
		t.Errorf("fixed = %q", fixed)
	}
	if !strings.Contains(fixed, "Show(tube, renderView1)") {
		t.Errorf("fixed = %q", fixed)
	}
}

func TestSimModelStageDispatch(t *testing.T) {
	ctx := context.Background()
	m, _ := NewModel("gpt-4")
	// Rewrite stage.
	resp, err := m.Complete(ctx, Request{
		System: "Rewrite the request as step-by-step instructions.",
		User:   PromptIso,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Text, "Requirements step-by-step") ||
		!strings.Contains(resp.Text, "ml-100.vtk") {
		t.Errorf("rewrite response = %q", resp.Text)
	}
	// Generation stage (ungrounded).
	resp, err = m.Complete(ctx, Request{System: "Generate a script.", User: PromptIso})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Text, "from paraview.simple import *") {
		t.Errorf("generation response = %q", resp.Text)
	}
	if resp.Model != "gpt-4" {
		t.Errorf("response model = %q", resp.Model)
	}
	if resp.Usage.CompletionChars != len(resp.Text) || resp.Usage.CompletionTokens == 0 {
		t.Errorf("response usage = %+v", resp.Usage)
	}
	if resp.Usage.PromptChars == 0 || resp.Usage.PromptTokens == 0 {
		t.Errorf("prompt usage not recorded: %+v", resp.Usage)
	}
	if resp.Attempts != 1 || resp.CacheHit {
		t.Errorf("fresh call provenance = attempts %d cacheHit %v", resp.Attempts, resp.CacheHit)
	}
	// Repair stage.
	user := BuildRepairUser("x = (1\n", "  File \"script.py\", line 1\n    x = (1\n    ^\nSyntaxError: '(' was never closed")
	resp, err = m.Complete(ctx, Request{System: "Please fix the code.", User: user})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Text, "x = (1)") {
		t.Errorf("repair response = %q", resp.Text)
	}
}

func TestDeterminism(t *testing.T) {
	ctx := context.Background()
	m, _ := NewModel("gpt-3.5-turbo")
	a, _ := m.Complete(ctx, Request{System: "gen", User: PromptStream})
	b, _ := m.Complete(ctx, Request{System: "gen", User: PromptStream})
	if a.Text != b.Text {
		t.Error("simulated models must be deterministic")
	}
}

func TestSimModelHonoursCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m, _ := NewModel("gpt-4")
	if _, err := m.Complete(ctx, Request{System: "gen", User: PromptIso}); err == nil {
		t.Error("cancelled context should abort the call")
	}
}

func TestParseIntentGenericText(t *testing.T) {
	spec := ParseIntent("please do something unrelated to visualization")
	if len(spec.Ops) != 0 || spec.TaskID() != "generic" {
		t.Errorf("spec = %+v", spec)
	}
}

// TestParseIntentResolution pins the "W x H pixels" grammar: 2–5 digit
// sizes are honoured, anything else leaves both dimensions unset.
func TestParseIntentResolution(t *testing.T) {
	for _, tc := range []struct {
		text string
		w, h int
	}{
		{"The rendered view and saved screenshot should be 160 x 90 pixels.", 160, 90},
		{"The rendered view and saved screenshot should be 1920 x 1080 pixels.", 1920, 1080},
		{"Save a 64×48 pixel image.", 64, 48},
		{"Make it 10X10 pixels.", 10, 10},
		{"Make it 99999 x 99999 pixels.", 99999, 99999},
		{"Make it 0640 x 480 pixels.", 640, 480},
		{"Make it 9 x 9 pixels.", 0, 0},
		{"Make it 00 x 50 pixels.", 0, 0},
		{"Make it 160 x 90.", 0, 0},
		{"Make it 123456 x 1080000 pixels.", 0, 0},
	} {
		spec := ParseIntent(tc.text)
		if spec.Width != tc.w || spec.Height != tc.h {
			t.Errorf("%q: resolution = %dx%d, want %dx%d", tc.text, spec.Width, spec.Height, tc.w, tc.h)
		}
	}
}

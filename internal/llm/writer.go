package llm

import (
	"fmt"
	"strings"
)

// Profile describes one simulated model's competence. Fields are
// calibrated to the behaviours the paper reports per model.
type Profile struct {
	Name string
	// SyntaxDefect injects a deterministic syntax error into every
	// generated script: "" (none), "paren", "fence", "indent", "string".
	SyntaxDefect string
	// Hallucinates enables the GPT-4-class API hallucinations (invented
	// attributes, views used before creation) when generation is not
	// grounded by example snippets.
	Hallucinates bool
	// DetailSlips injects subtle property-name slips that few-shot
	// examples do not cover; these surface under ChatVis and are the work
	// the correction loop performs.
	DetailSlips bool
	// SetsExplicitCamera hand-writes camera coordinates instead of using
	// ResetCamera (the paper's cropped-screenshot failure).
	SetsExplicitCamera bool
	// OmitsBackgroundOverride leaves ParaView's gray background (the
	// GPT-4 isosurface difference in Fig. 2).
	OmitsBackgroundOverride bool
	// RepairSkill: 0 = cannot use error feedback, 1 = deletes offending
	// lines, 2 = applies correct fixes.
	RepairSkill int
}

// script builder helpers -----------------------------------------------------

type sb struct {
	lines []string
}

func (b *sb) add(format string, args ...interface{}) {
	b.lines = append(b.lines, fmt.Sprintf(format, args...))
}

func (b *sb) blank() { b.lines = append(b.lines, "") }

func (b *sb) String() string { return strings.Join(b.lines, "\n") + "\n" }

var colorRGB = map[string]string{
	"red": "[1.0, 0.0, 0.0]", "green": "[0.0, 1.0, 0.0]", "blue": "[0.0, 0.0, 1.0]",
	"white": "[1.0, 1.0, 1.0]", "black": "[0.0, 0.0, 0.0]", "yellow": "[1.0, 1.0, 0.0]",
	"orange": "[1.0, 0.5, 0.0]", "purple": "[0.5, 0.0, 0.5]",
}

func axisNormal(axis string) string {
	switch axis {
	case "y":
		return "[0.0, 1.0, 0.0]"
	case "z":
		return "[0.0, 0.0, 1.0]"
	default:
		return "[1.0, 0.0, 0.0]"
	}
}

func axisOrigin(axis string, off float64) string {
	switch axis {
	case "y":
		return fmt.Sprintf("[0.0, %g, 0.0]", off)
	case "z":
		return fmt.Sprintf("[0.0, 0.0, %g]", off)
	default:
		return fmt.Sprintf("[%g, 0.0, 0.0]", off)
	}
}

// Grounding records which operations were demonstrated by example
// snippets in the prompt. A model only uses the canonical API for an
// operation it has seen an example of — the paper's few-shot argument,
// made op-granular.
type Grounding map[string]bool

// Has reports whether the op family is grounded.
func (g Grounding) Has(op string) bool { return g != nil && g[op] }

// FullGrounding covers every operation (the complete example library).
func FullGrounding() Grounding {
	g := Grounding{}
	for _, op := range []string{"read", "contour", "slice", "clip", "delaunay",
		"streamlines", "tube", "glyph", "volume", "view", "screenshot",
		"threshold"} {
		g[op] = true
	}
	return g
}

// groundingMarkers map canonical API text to the op family it teaches.
var groundingMarkers = map[string]string{
	"LegacyVTKReader(":                "read",
	"ExodusIIReader(":                 "read",
	"Contour(":                        "contour",
	"Slice(":                          "slice",
	"Clip(":                           "clip",
	"Delaunay3D(":                     "delaunay",
	"StreamTracer(":                   "streamlines",
	"Tube(":                           "tube",
	"Glyph(":                          "glyph",
	"SetRepresentationType('Volume')": "volume",
	"GetActiveViewOrCreate(":          "view",
	"SaveScreenshot(":                 "screenshot",
	"Threshold(":                      "threshold",
}

// APIReferenceMarker is the header of a full API listing; a prompt
// containing complete documentation grounds every operation (the model
// can look names up instead of guessing).
const APIReferenceMarker = "paraview.simple API reference"

// GroundingFromText scans prompt text for example snippets (or a full
// API reference) and returns the ops they cover.
func GroundingFromText(text string) Grounding {
	if strings.Contains(text, APIReferenceMarker) {
		return FullGrounding()
	}
	g := Grounding{}
	for marker, op := range groundingMarkers {
		if strings.Contains(text, marker) {
			g[op] = true
		}
	}
	return g
}

// WriteScript synthesizes a ParaView Python script for the task. g
// records which operations example snippets covered (ChatVis few-shot
// prompting); grounding suppresses API hallucinations for exactly those
// operations, as the paper argues.
func WriteScript(spec TaskSpec, p Profile, g Grounding) string {
	halluc := func(op string) bool { return p.Hallucinates && !g.Has(op) }
	// slips are subtle property errors on ops the examples do cover.
	slip := func(op string) bool { return p.DetailSlips && g.Has(op) }

	w, h := spec.Width, spec.Height
	if w == 0 {
		w, h = 1920, 1080
	}
	shot := spec.Screenshot
	if shot == "" {
		shot = "screenshot.png"
	}

	b := &sb{}
	b.add("from paraview.simple import *")
	if g.Has("view") {
		b.add("paraview.simple._DisableFirstRenderCameraReset()")
	}
	b.blank()

	// --- reader ---------------------------------------------------------
	readerVar := "reader"
	if spec.InputFile != "" {
		b.add("# Read the input dataset")
		if strings.HasSuffix(strings.ToLower(spec.InputFile), ".vtk") {
			b.add("reader = LegacyVTKReader(registrationName='%s', FileNames=['%s'])",
				spec.InputFile, spec.InputFile)
		} else {
			b.add("reader = ExodusIIReader(FileName='%s')", spec.InputFile)
			b.add("reader.UpdatePipeline()")
		}
		b.blank()
	}

	current := readerVar // the head of the pipeline being built
	showVar := ""        // variable to Show (default: current)
	extraShows := []string{}

	// --- filters ----------------------------------------------------------
	for _, op := range spec.Ops {
		switch op.Kind {
		case OpIsosurface:
			array := op.Array
			if array == "" {
				array = "var0"
			}
			values := op.Values
			if len(values) == 0 {
				values = []float64{op.Value}
			}
			if len(values) > 1 {
				b.add("# Generate isosurfaces of %s at values %s", array, joinFloats(values, ", "))
			} else {
				b.add("# Generate an isosurface of %s at value %g", array, values[0])
			}
			b.add("contour1 = Contour(registrationName='Contour1', Input=%s)", current)
			b.add("contour1.ContourBy = ['POINTS', '%s']", array)
			b.add("contour1.Isosurfaces = [%s]", joinFloats(values, ", "))
			b.blank()
			current = "contour1"
		case OpSlice:
			b.add("# Slice with a plane normal to %s at %s=%g", op.Axis, op.Axis, op.Offset)
			b.add("slice1 = Slice(registrationName='Slice1', Input=%s, SliceType='Plane')", current)
			b.add("slice1.SliceType.Origin = %s", axisOrigin(op.Axis, op.Offset))
			b.add("slice1.SliceType.Normal = %s", axisNormal(op.Axis))
			b.blank()
			current = "slice1"
		case OpContourLines:
			b.add("# Contour the slice at value %g", op.Value)
			b.add("contour1 = Contour(registrationName='Contour1', Input=%s)", current)
			b.add("contour1.Isosurfaces = [%g]", op.Value)
			b.blank()
			current = "contour1"
		case OpThreshold:
			array := orDefault(op.Array, "Temp")
			b.add("# Threshold by %s between %g and %g", array, op.Offset, op.Value)
			b.add("threshold1 = Threshold(registrationName='Threshold1', Input=%s)", current)
			if halluc("threshold") {
				// Pre-5.10 ParaView used ThresholdRange; the modern API
				// split it into Lower/UpperThreshold — a classic stale-
				// training-data hallucination.
				b.add("threshold1.ThresholdRange = [%g, %g]", op.Offset, op.Value)
			} else {
				b.add("threshold1.Scalars = ['POINTS', '%s']", array)
				b.add("threshold1.LowerThreshold = %g", op.Offset)
				b.add("threshold1.UpperThreshold = %g", op.Value)
			}
			b.blank()
			current = "threshold1"
		case OpDelaunay:
			b.add("# Triangulate the point cloud")
			b.add("delaunay1 = Delaunay3D(registrationName='Delaunay3D1', Input=%s)", current)
			b.blank()
			current = "delaunay1"
		case OpClip:
			b.add("# Clip with a plane at %s=%g", op.Axis, op.Offset)
			b.add("clip1 = Clip(registrationName='Clip1', Input=%s, ClipType='Plane')", current)
			b.add("clip1.ClipType.Origin = %s", axisOrigin(op.Axis, op.Offset))
			b.add("clip1.ClipType.Normal = %s", axisNormal(op.Axis))
			if halluc("clip") {
				// GPT-4's invented attribute (paper §IV-D).
				b.add("clip1.InsideOut = %d", boolToInt(op.KeepNegative))
			} else {
				b.add("clip1.Invert = %d", boolToInt(op.KeepNegative))
			}
			b.blank()
			current = "clip1"
		case OpStreamlines:
			b.add("# Trace streamlines seeded from a default point cloud")
			b.add("streamTracer = StreamTracer(registrationName='StreamTracer1', Input=%s,", current)
			b.add("                            SeedType='Point Cloud')")
			if op.Array != "" && !g.Has("streamlines") {
				b.add("streamTracer.Vectors = ['POINTS', '%s']", op.Array)
			}
			b.blank()
			current = "streamTracer"
		case OpTube:
			b.add("# Render the streamlines with tubes")
			b.add("tube = Tube(registrationName='Tube1', Input=%s)", current)
			b.add("tube.Radius = 0.075")
			if slip("tube") {
				// Capitalization slip the examples don't cover: ParaView's
				// actual property is NumberofSides.
				b.add("tube.NumberOfSides = 12")
			}
			b.blank()
			showVar = "tube"
		case OpGlyph:
			src := current
			b.add("# Add %s glyphs to indicate direction", strings.ToLower(op.GlyphType))
			b.add("glyph = Glyph(registrationName='Glyph1', Input=%s, GlyphType='%s')", src, op.GlyphType)
			if halluc("glyph") {
				// GPT-4's invented Glyph attributes (paper Table I right).
				b.add("glyph.Scalars = ['POINTS', '%s']", orDefault(spec.ColorArray, "Temp"))
				b.add("glyph.Vectors = ['POINTS', 'V']")
			} else {
				b.add("glyph.OrientationArray = ['POINTS', 'V']")
				b.add("glyph.ScaleArray = ['POINTS', 'V']")
			}
			b.add("glyph.ScaleFactor = 0.2")
			b.blank()
			extraShows = append(extraShows, "glyph")
		}
	}
	if showVar == "" {
		showVar = current
	}

	// --- view -------------------------------------------------------------
	if halluc("view") && spec.HasOp(OpStreamlines) {
		// The paper's GPT-4 script shows into a view name before any view
		// exists.
		b.add("# Display the results")
		b.add("tubeDisplay = Show(%s, 'RenderView1')", showVar)
		for _, ev := range extraShows {
			b.add("%sDisplay = Show(%s, 'RenderView1')", ev, ev)
		}
		b.add("renderView1 = GetActiveViewOrCreate('RenderView')")
	} else {
		b.add("# Set up the render view")
		b.add("renderView1 = GetActiveViewOrCreate('RenderView')")
		b.add("renderView1.ViewSize = [%d, %d]", w, h)
		b.blank()
		b.add("%sDisplay = Show(%s, renderView1)", showVar, showVar)
		for _, ev := range extraShows {
			b.add("%sDisplay = Show(%s, renderView1)", ev, ev)
		}
	}

	// --- display options ----------------------------------------------------
	if spec.HasOp(OpVolumeRender) {
		if halluc("volume") {
			// GPT-4's volume script never switches to volume rendering
			// (paper §IV-C): nothing emitted here.
			b.add("# (volume rendering representation not configured)")
		} else {
			b.add("%sDisplay.SetRepresentationType('Volume')", showVar)
			if slip("volume") {
				// Slip: wrong method name, examples cover only ColorBy.
				b.lines[len(b.lines)-1] = fmt.Sprintf("%sDisplay.SetRepresentation('Volume')", showVar)
			}
			array := orDefault(spec.ColorArray, "var0")
			b.add("ColorBy(%sDisplay, ['POINTS', '%s'])", showVar, array)
			b.add("%sDisplay.RescaleTransferFunctionToDataRange(True)", showVar)
		}
	}
	if spec.Wireframe {
		b.add("%sDisplay.SetRepresentationType('Wireframe')", showVar)
	}
	if spec.SolidColor != "" {
		if halluc("view") {
			// GPT-4 calls ColorBy on the filter proxy (paper §IV-B).
			b.add("ColorBy(%s, None)", current)
		} else {
			b.add("ColorBy(%sDisplay, None)", showVar)
		}
		b.add("%sDisplay.DiffuseColor = %s", showVar, colorRGB[spec.SolidColor])
		b.add("%sDisplay.LineWidth = 2.0", showVar)
	}
	if spec.ColorArray != "" && !spec.HasOp(OpVolumeRender) {
		targets := append([]string{showVar}, extraShows...)
		for _, tgt := range targets {
			b.add("ColorBy(%sDisplay, ('POINTS', '%s'))", tgt, spec.ColorArray)
		}
		for _, tgt := range targets {
			b.add("%sDisplay.RescaleTransferFunctionToDataRange(True)", tgt)
		}
	}
	b.blank()

	// --- camera -------------------------------------------------------------
	switch {
	case halluc("view") && p.SetsExplicitCamera:
		// Hand-written camera numbers instead of ResetCamera. For the
		// isosurface task the guess roughly frames the object (Fig. 2c's
		// "slightly different zoom"); for streamlines the guess sits
		// inside the data and crops the view (paper Table I right,
		// lines 40-42).
		if spec.TaskID() == "isosurface" {
			b.add("renderView1.CameraPosition = [0, 0, 4]")
			b.add("renderView1.CameraFocalPoint = [0, 0, 0]")
			b.add("renderView1.CameraViewUp = [0, 1, 0]")
		} else {
			b.add("renderView1.CameraPosition = [1, 0, 0]")
			b.add("renderView1.CameraFocalPoint = [0, 0, 0]")
			if spec.TaskID() == "slice-contour" {
				// The ViewUp hallucination from the paper (§IV-B).
				b.add("renderView1.ViewUp = [0.0, 1.0, 0.0]")
			} else {
				b.add("renderView1.CameraViewUp = [0, 0, 1]")
			}
		}
	default:
		switch spec.ViewDirection {
		case "isometric":
			if slip("view") && spec.HasOp(OpDelaunay) {
				b.add("renderView1.ResetActiveCameraToIsometric()")
			} else {
				b.add("renderView1.ApplyIsometricView()")
			}
		case "+X":
			b.add("renderView1.ResetActiveCameraToPositiveX()")
		case "-X":
			b.add("renderView1.ResetActiveCameraToNegativeX()")
		case "+Y":
			b.add("renderView1.ResetActiveCameraToPositiveY()")
		case "-Y":
			b.add("renderView1.ResetActiveCameraToNegativeY()")
		case "+Z":
			b.add("renderView1.ResetActiveCameraToPositiveZ()")
		case "-Z":
			b.add("renderView1.ResetActiveCameraToNegativeZ()")
		}
		b.add("renderView1.ResetCamera()")
		if halluc("view") && spec.TaskID() == "slice-contour" {
			b.add("renderView1.ViewUp = [0.0, 1.0, 0.0]")
		}
	}
	b.blank()

	// --- screenshot -----------------------------------------------------------
	b.add("# Save a screenshot of the result")
	if p.OmitsBackgroundOverride && halluc("screenshot") {
		b.add("SaveScreenshot('%s', renderView1,", shot)
		b.add("    ImageResolution=[%d, %d])", w, h)
	} else {
		b.add("SaveScreenshot('%s', renderView1,", shot)
		b.add("    ImageResolution=[%d, %d],", w, h)
		b.add("    OverrideColorPalette='WhiteBackground')")
	}

	script := b.String()
	return injectSyntaxDefect(script, p.SyntaxDefect)
}

func boolToInt(v bool) int {
	if v {
		return 1
	}
	return 0
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

// joinFloats renders a value list with %g formatting.
func joinFloats(vals []float64, sep string) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = fmt.Sprintf("%g", v)
	}
	return strings.Join(parts, sep)
}

// injectSyntaxDefect corrupts a script the way weaker models do,
// deterministically.
func injectSyntaxDefect(script, defect string) string {
	lines := strings.Split(script, "\n")
	switch defect {
	case "paren":
		// Drop the closing parenthesis of the Show call.
		for i, l := range lines {
			if strings.Contains(l, "Show(") && strings.HasSuffix(strings.TrimSpace(l), ")") {
				lines[i] = strings.TrimRight(strings.TrimSpace(l), ")")
				break
			}
		}
		return strings.Join(lines, "\n")
	case "fence":
		return "```python\n" + script + "```\n"
	case "indent":
		// Indent a deterministic mid-script statement (not a comment —
		// indented comments are legal Python).
		for i, l := range lines {
			if i > 4 && strings.Contains(l, "=") && !strings.HasPrefix(l, " ") &&
				!strings.HasPrefix(l, "#") && l != "" {
				lines[i] = "    " + l
				break
			}
		}
		return strings.Join(lines, "\n")
	case "string":
		for i, l := range lines {
			if strings.Contains(l, "SaveScreenshot('") {
				lines[i] = strings.Replace(l, "', renderView1,", ", renderView1,", 1)
				break
			}
		}
		return strings.Join(lines, "\n")
	}
	return script
}

// RenderStepPrompt renders the "generated prompt" of the paper's first
// stage: a step-by-step instruction list derived from the task spec. Its
// phrasing deliberately round-trips through ParseIntent.
func RenderStepPrompt(spec TaskSpec) string {
	var b strings.Builder
	b.WriteString("Generate a Python script using ParaView for performing visualization tasks based on the provided steps. ")
	if spec.InputFile != "" {
		fmt.Fprintf(&b, "This script utilizes ParaView to visualize data from the %s file. ", spec.InputFile)
	}
	b.WriteString("Requirements step-by-step:\n")
	if spec.InputFile != "" {
		fmt.Fprintf(&b, "- Read the file named %s given the path.\n", spec.InputFile)
	}
	seenClip := false
	seenThreshold := false
	for _, op := range spec.Ops {
		switch op.Kind {
		case OpIsosurface:
			switch {
			case len(op.Values) > 1:
				// Multi-value contours keep their value list even after a
				// threshold; the "thresholded data" suffix preserves the
				// composition order through the re-parse (isoMultiRe
				// tolerates the trailing clause).
				suffix := ""
				if seenThreshold {
					suffix = " through the thresholded data"
				}
				fmt.Fprintf(&b, "- Generate isosurfaces of the variable %s at the values %s%s.\n",
					orDefault(op.Array, "var0"), joinFloats(op.Values, " and "), suffix)
			case seenThreshold:
				// Phrase the contour over "the thresholded data" so
				// re-parsing the rendered prompt preserves the
				// composition order (the thresholdBeforeContour reorder
				// keys on that wording).
				fmt.Fprintf(&b, "- Take a contour of the variable %s at the value %g through the thresholded data.\n",
					orDefault(op.Array, "var0"), op.Value)
			default:
				fmt.Fprintf(&b, "- Generate an isosurface of the variable %s at value %g.\n",
					orDefault(op.Array, "var0"), op.Value)
			}
		case OpSlice:
			pair := map[string]string{"x": "y-z", "y": "x-z", "z": "x-y"}[op.Axis]
			// After a clip, phrase the slice over "the clipped data" so
			// re-parsing the rendered prompt preserves the composition
			// order (clipBeforeSlice keys on that wording).
			target := "the volume"
			if seenClip {
				target = "the clipped data"
			}
			fmt.Fprintf(&b, "- Slice %s in a plane parallel to the %s plane at %s=%g.\n",
				target, pair, op.Axis, op.Offset)
		case OpContourLines:
			fmt.Fprintf(&b, "- Take a contour through the slice at the value %g.\n", op.Value)
		case OpThreshold:
			fmt.Fprintf(&b, "- Threshold the data by the %s array between %g and %g.\n",
				orDefault(op.Array, "Temp"), op.Offset, op.Value)
			seenThreshold = true
		case OpVolumeRender:
			b.WriteString("- Generate a volume rendering using the default transfer function.\n")
		case OpDelaunay:
			b.WriteString("- Generate a 3d Delaunay triangulation of the dataset.\n")
		case OpClip:
			sign := "+"
			if op.KeepNegative {
				sign = "-"
			}
			pair := map[string]string{"x": "y-z", "y": "x-z", "z": "x-y"}[op.Axis]
			fmt.Fprintf(&b, "- Clip the data with a %s plane at %s=%g, keeping the %s%s half.\n",
				pair, op.Axis, op.Offset, sign, op.Axis)
			seenClip = true
		case OpStreamlines:
			fmt.Fprintf(&b, "- Trace streamlines of the %s data array seeded from a default point cloud.\n",
				orDefault(op.Array, "V"))
		case OpTube:
			b.WriteString("- Render the streamlines with tubes.\n")
		case OpGlyph:
			// Only mention streamlines when the spec has them: the rendered
			// prompt round-trips through ParseIntent, and the word
			// "streamlines" would otherwise conjure a StreamTracer op the
			// user never asked for.
			target := "the dataset"
			if spec.HasOp(OpStreamlines) {
				target = "the streamlines"
			}
			fmt.Fprintf(&b, "- Add %s glyphs to %s.\n", strings.ToLower(op.GlyphType), target)
		}
	}
	if spec.SolidColor != "" {
		fmt.Fprintf(&b, "- Color the contour %s.\n", spec.SolidColor)
	}
	if spec.ColorArray != "" {
		if spec.HasOp(OpStreamlines) {
			fmt.Fprintf(&b, "- Color the streamlines and glyphs by the %s data array.\n", spec.ColorArray)
		} else {
			// Same round-trip concern as the glyph step above.
			fmt.Fprintf(&b, "- Color the result by the %s data array.\n", spec.ColorArray)
		}
	}
	if spec.Wireframe {
		b.WriteString("- Render the image as a wireframe.\n")
	}
	switch spec.ViewDirection {
	case "isometric":
		b.WriteString("- Rotate the view to an isometric direction.\n")
	case "":
	default:
		fmt.Fprintf(&b, "- View the result in the %s direction.\n", spec.ViewDirection)
	}
	if spec.Width > 0 {
		fmt.Fprintf(&b, "- Configure the rendered view resolution to %d x %d pixels.\n",
			spec.Width, spec.Height)
	}
	if spec.Screenshot != "" {
		fmt.Fprintf(&b, "- Save a screenshot of the rendered view to the filename %s.\n", spec.Screenshot)
	}
	return b.String()
}

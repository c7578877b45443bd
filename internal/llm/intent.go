// Package llm provides the language-model layer of the reproduction: a
// Client interface shaped like a chat-completion API, and a deterministic
// simulated model family whose members differ in ParaView-API competence —
// calibrated to the behaviours the paper reports for GPT-4,
// GPT-3.5-turbo, Llama-3-8B, CodeLlama-7B and CodeGemma.
//
// The simulation keeps every code path of the paper's agent real: models
// consume prompt text, emit Python script text (with model-specific
// hallucinations or syntax defects), and revise scripts when handed
// extracted error messages. See DESIGN.md for the substitution argument.
package llm

import (
	"regexp"
	"strconv"
	"strings"
)

// OpKind enumerates the visualization operations the intent parser
// recognizes — the vocabulary of the paper's five scenarios plus common
// variants.
type OpKind int

// Operation kinds.
const (
	OpRead OpKind = iota
	OpIsosurface
	OpSlice
	OpContourLines
	OpVolumeRender
	OpDelaunay
	OpClip
	OpStreamlines
	OpTube
	OpGlyph
	OpThreshold
)

func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpIsosurface:
		return "isosurface"
	case OpSlice:
		return "slice"
	case OpContourLines:
		return "contour"
	case OpVolumeRender:
		return "volume-render"
	case OpDelaunay:
		return "delaunay"
	case OpClip:
		return "clip"
	case OpStreamlines:
		return "streamlines"
	case OpTube:
		return "tube"
	case OpGlyph:
		return "glyph"
	case OpThreshold:
		return "threshold"
	}
	return "unknown"
}

// Op is one requested operation with its parameters.
type Op struct {
	Kind OpKind
	// Array names the data array involved (contour variable, vector
	// field, color array).
	Array string
	// Value is the scalar parameter (isovalue, threshold).
	Value float64
	// Values holds multi-value parameters (a multi-value contour's
	// isovalue list); when set it supersedes Value.
	Values []float64
	// Axis is "x", "y" or "z" for slices/clips.
	Axis string
	// Offset is the plane position along Axis.
	Offset float64
	// KeepNegative keeps the -Axis side for clips.
	KeepNegative bool
	// GlyphType is "Cone", "Arrow" or "Sphere".
	GlyphType string
}

// TaskSpec is the structured reading of a visualization request — what
// the "language understanding" of every simulated model extracts from
// prompt text.
type TaskSpec struct {
	InputFile  string
	Ops        []Op
	Screenshot string
	// Width and Height are the requested image size in pixels, 2–5
	// digits each; both are 0 when the text names no size.
	Width  int
	Height int
	// ViewDirection is "+X", "-X", ..., "isometric" or "" (default).
	ViewDirection string
	// ColorArray colors results by this point array ("" = none).
	ColorArray string
	// SolidColor is a named color for the primary result ("" = default).
	SolidColor string
	// Wireframe renders the result as wireframe.
	Wireframe bool
}

const numPat = `(-?\d+(?:\.\d+)?)`

var (
	fileRe      = regexp.MustCompile(`(?i)file(?:\s+named)?\s+['"]?([\w\-.]+?\.(?:vtk|ex2|exo|e))['"]?`)
	shotRe      = regexp.MustCompile(`(?i)(?:filename|file name)\s+['"]?([\w\-.]+?\.png)['"]?`)
	resRe       = regexp.MustCompile(`(?i)([1-9]\d{1,4})\s*[xX×]\s*([1-9]\d{1,4})\s*pixels?`)
	isoRe       = regexp.MustCompile(`(?i)isosurface(?:s)?\s+of\s+(?:the\s+)?(?:variable\s+)?['"]?(\w+)['"]?\s+at\s+(?:value\s+)?` + numPat)
	isoMultiRe  = regexp.MustCompile(`(?i)isosurfaces\s+of\s+(?:the\s+)?(?:variable\s+)?['"]?(\w+)['"]?\s+at\s+(?:the\s+)?values\s+(` + numPat + `(?:(?:\s*,\s*|\s+and\s+)` + numPat + `)*)`)
	numsRe      = regexp.MustCompile(numPat)
	valueRe     = regexp.MustCompile(`(?i)at\s+(?:the\s+)?value\s+` + numPat)
	sliceRe     = regexp.MustCompile(`(?i)plane\s+parallel\s+to\s+the\s+([xyz])[\s-]*([xyz])\s+plane\s+at\s+([xyz])\s*=\s*` + numPat)
	clipRe      = regexp.MustCompile(`(?i)clip\s+the\s+data\s+with\s+an?\s+([xyz])[\s-]*([xyz])\s+plane\s+at\s+([xyz])\s*=\s*` + numPat)
	keepRe      = regexp.MustCompile(`(?i)keeping\s+the\s+([+-])([xyz])\s+half`)
	streamRe    = regexp.MustCompile(`(?i)streamlines?\s+of\s+(?:the\s+)?['"]?(\w+)['"]?\s+(?:data\s+)?array`)
	threshRe    = regexp.MustCompile(`(?i)threshold\s+(?:the\s+)?[\w\s]*?(?:by|on)\s+(?:the\s+)?['"]?(\w+)['"]?[\w\s]*?between\s+` + numPat + `\s+and\s+` + numPat)
	contourOfRe = regexp.MustCompile(`(?i)contour\s+of\s+(?:the\s+)?variable\s+['"]?(\w+)['"]?`)
	colorRe     = regexp.MustCompile(`(?i)color\s+(?:the\s+)?[\w\s,]*?by\s+(?:the\s+)?['"]?(\w+)['"]?\s+(?:data\s+)?array`)
	solidRe     = regexp.MustCompile(`(?i)color\s+the\s+\w+\s+(red|green|blue|white|black|yellow|orange|purple)`)
)

// ParseIntent extracts a TaskSpec from natural-language text (a raw user
// prompt or a rewritten step-by-step prompt). It is deterministic and
// shared by all simulated models: the models differ downstream, in how
// they turn the spec into code.
func ParseIntent(text string) TaskSpec {
	var spec TaskSpec
	lower := strings.ToLower(text)

	if m := fileRe.FindStringSubmatch(text); m != nil {
		spec.InputFile = m[1]
		spec.Ops = append(spec.Ops, Op{Kind: OpRead})
	}
	if m := shotRe.FindStringSubmatch(text); m != nil {
		spec.Screenshot = m[1]
	}
	if m := resRe.FindStringSubmatch(text); m != nil {
		spec.Width, _ = strconv.Atoi(m[1])
		spec.Height, _ = strconv.Atoi(m[2])
	}

	// Slice before isosurface detection: the slice-then-contour prompt
	// contains both "slice" and "contour".
	hasSlice := strings.Contains(lower, "slice")
	if m := sliceRe.FindStringSubmatch(text); m != nil && hasSlice {
		off, _ := strconv.ParseFloat(m[4], 64)
		spec.Ops = append(spec.Ops, Op{Kind: OpSlice, Axis: strings.ToLower(m[3]), Offset: off})
	} else if hasSlice && strings.Contains(lower, "slice the volume") {
		spec.Ops = append(spec.Ops, Op{Kind: OpSlice, Axis: "x"})
	}

	switch {
	case strings.Contains(lower, "isosurface"):
		op := Op{Kind: OpIsosurface, Value: 0.5}
		if m := isoMultiRe.FindStringSubmatch(text); m != nil {
			// Multi-value contour: "isosurfaces of var0 at the values
			// 0.3 and 0.7".
			op.Array = m[1]
			for _, n := range numsRe.FindAllString(m[2], -1) {
				v, err := strconv.ParseFloat(n, 64)
				if err == nil {
					op.Values = append(op.Values, v)
				}
			}
			if len(op.Values) > 0 {
				op.Value = op.Values[0]
			}
		} else if m := isoRe.FindStringSubmatch(text); m != nil {
			op.Array = m[1]
			op.Value, _ = strconv.ParseFloat(m[2], 64)
		}
		spec.Ops = append(spec.Ops, op)
	case hasSlice && strings.Contains(lower, "contour"):
		op := Op{Kind: OpContourLines, Value: 0.5}
		if m := valueRe.FindStringSubmatch(text); m != nil {
			op.Value, _ = strconv.ParseFloat(m[1], 64)
		}
		spec.Ops = append(spec.Ops, op)
	case strings.Contains(lower, "contour") && !hasSlice:
		op := Op{Kind: OpIsosurface, Value: 0.5}
		if m := valueRe.FindStringSubmatch(text); m != nil {
			op.Value, _ = strconv.ParseFloat(m[1], 64)
		}
		if m := isoRe.FindStringSubmatch(text); m != nil {
			op.Array = m[1]
			op.Value, _ = strconv.ParseFloat(m[2], 64)
		} else if m := contourOfRe.FindStringSubmatch(text); m != nil {
			// "contour of the variable Temp at the value 600".
			op.Array = m[1]
		}
		spec.Ops = append(spec.Ops, op)
	}

	if strings.Contains(lower, "volume rendering") || strings.Contains(lower, "volume render") {
		spec.Ops = append(spec.Ops, Op{Kind: OpVolumeRender})
	}
	if strings.Contains(lower, "delaunay") {
		spec.Ops = append(spec.Ops, Op{Kind: OpDelaunay})
	}
	if strings.Contains(lower, "clip") {
		op := Op{Kind: OpClip, Axis: "x"}
		if m := clipRe.FindStringSubmatch(text); m != nil {
			op.Axis = strings.ToLower(m[3])
			op.Offset, _ = strconv.ParseFloat(m[4], 64)
		}
		if m := keepRe.FindStringSubmatch(text); m != nil {
			op.KeepNegative = m[1] == "-"
			op.Axis = strings.ToLower(m[2])
		}
		spec.Ops = append(spec.Ops, op)
	}
	if strings.Contains(lower, "threshold") {
		op := Op{Kind: OpThreshold}
		if m := threshRe.FindStringSubmatch(text); m != nil {
			op.Array = m[1]
			op.Offset, _ = strconv.ParseFloat(m[2], 64) // lower bound
			op.Value, _ = strconv.ParseFloat(m[3], 64)  // upper bound
		}
		spec.Ops = append(spec.Ops, op)
	}
	if strings.Contains(lower, "streamline") || strings.Contains(lower, "stream trace") {
		op := Op{Kind: OpStreamlines}
		if m := streamRe.FindStringSubmatch(text); m != nil {
			op.Array = m[1]
		}
		spec.Ops = append(spec.Ops, op)
	}
	if strings.Contains(lower, "tube") {
		spec.Ops = append(spec.Ops, Op{Kind: OpTube})
	}
	if strings.Contains(lower, "glyph") {
		op := Op{Kind: OpGlyph, GlyphType: "Arrow"}
		if strings.Contains(lower, "cone") {
			op.GlyphType = "Cone"
		} else if strings.Contains(lower, "sphere") {
			op.GlyphType = "Sphere"
		}
		spec.Ops = append(spec.Ops, op)
	}

	// Composition order: "slice the clipped data" means the clip runs
	// first even though the parser collected the slice earlier. Move the
	// clip op ahead of the first slice op.
	if strings.Contains(lower, "clipped") && spec.HasOp(OpClip) && spec.HasOp(OpSlice) {
		spec.Ops = clipBeforeSlice(spec.Ops)
	}
	// Likewise "contour ... through the thresholded data": the threshold
	// feeds the contour even though the contour parsed first.
	if strings.Contains(lower, "thresholded") && spec.HasOp(OpThreshold) && spec.HasOp(OpIsosurface) {
		spec.Ops = reorderOps(spec.Ops, OpThreshold, OpIsosurface)
	}

	if m := colorRe.FindStringSubmatch(text); m != nil {
		spec.ColorArray = m[1]
	}
	if m := solidRe.FindStringSubmatch(text); m != nil {
		spec.SolidColor = strings.ToLower(m[1])
	}
	spec.Wireframe = strings.Contains(lower, "wireframe")
	spec.ViewDirection = parseViewDirection(text)
	return spec
}

// parseViewDirection extracts a camera orientation request ("isometric",
// "+X", ... or "" when none). Shared by the one-shot intent parser and
// the edit-intent grammar.
func parseViewDirection(text string) string {
	lower := strings.ToLower(text)
	switch {
	case strings.Contains(lower, "isometric"):
		return "isometric"
	case regexp.MustCompile(`(?i)[+]x\s+direction`).MatchString(text),
		strings.Contains(lower, "look at the +x"):
		return "+X"
	case strings.Contains(lower, "-x direction"):
		return "-X"
	case strings.Contains(lower, "+y direction"):
		return "+Y"
	case strings.Contains(lower, "-y direction"):
		return "-Y"
	case strings.Contains(lower, "+z direction"):
		return "+Z"
	case strings.Contains(lower, "-z direction"):
		return "-Z"
	}
	return ""
}

// clipBeforeSlice reorders ops so the (first) clip precedes the (first)
// slice, preserving the relative order of everything else.
func clipBeforeSlice(ops []Op) []Op { return reorderOps(ops, OpClip, OpSlice) }

// reorderOps moves the first op of kind `before` ahead of the first op
// of kind `after`, preserving the relative order of everything else —
// the dataflow-composition fixups the prompt wording implies.
func reorderOps(ops []Op, before, after OpKind) []Op {
	beforeAt, afterAt := -1, -1
	for i, op := range ops {
		if op.Kind == before && beforeAt < 0 {
			beforeAt = i
		}
		if op.Kind == after && afterAt < 0 {
			afterAt = i
		}
	}
	if beforeAt < 0 || afterAt < 0 || beforeAt < afterAt {
		return ops
	}
	moved := ops[beforeAt]
	out := make([]Op, 0, len(ops))
	for i, op := range ops {
		if i == beforeAt {
			continue
		}
		if i == afterAt {
			out = append(out, moved)
		}
		out = append(out, op)
	}
	return out
}

// HasOp reports whether the spec contains an operation of the given kind.
func (s TaskSpec) HasOp(k OpKind) bool {
	for _, op := range s.Ops {
		if op.Kind == k {
			return true
		}
	}
	return false
}

// FindOp returns the first operation of the given kind.
func (s TaskSpec) FindOp(k OpKind) (Op, bool) {
	for _, op := range s.Ops {
		if op.Kind == k {
			return op, true
		}
	}
	return Op{}, false
}

// TaskID classifies the spec into one of the paper's scenario families,
// used for reporting (Table II rows) and the writer's structure choice.
func (s TaskSpec) TaskID() string {
	switch {
	case s.HasOp(OpStreamlines):
		return "streamlines"
	case s.HasOp(OpDelaunay):
		return "delaunay"
	case s.HasOp(OpVolumeRender):
		return "volume"
	case s.HasOp(OpSlice):
		return "slice-contour"
	case s.HasOp(OpIsosurface):
		return "isosurface"
	}
	return "generic"
}

package pvsim

import (
	"context"
	"fmt"
	"os"
	"strings"

	"chatvis/internal/plan"
	"chatvis/internal/pypy"
	"chatvis/internal/vmath"
)

// ExecPlan executes a compiled plan directly against the engine — no
// interpreter pass — and returns the screenshot paths this call wrote.
//
// Execution is incremental: every pipeline stage is keyed by its
// canonical subtree hash (plus the on-disk identity of any reader files
// feeding it), and the engine memoizes the constructed proxy per key
// from one ExecPlan call to the next (the memo keeps the last plan's
// stages only). Re-executing a plan in which a repair iteration
// changed one property therefore re-runs only the changed stage and its
// downstream — upstream stages keep their computed datasets, and
// Engine.Executions() advances only by the changed-stage count. The keys
// deliberately carry the same content as the PR-3 data.Cache proxy keys
// (class, canonical props, input chain, file identity), so a configured
// DataCache composes: stages recomputed here still hit the shared
// process-wide dataset cache when any other engine computed them first.
//
// The plan must validate cleanly; plans with error diagnostics are
// refused before any stage runs (callers get structured diagnostics from
// plan.Validate or Compile — the cheap path — rather than a mid-run
// failure).
func (e *Engine) ExecPlan(ctx context.Context, p *plan.Plan) ([]string, error) {
	if diags := plan.Errors(plan.Validate(p, PlanSchema())); len(diags) > 0 {
		return nil, &pypy.PyError{
			Kind: "RuntimeError",
			Msg:  fmt.Sprintf("plan validation failed: %s", diags[0].Message),
		}
	}
	// The single in-order pass below requires inputs to precede their
	// dependents. Compile and Normalize both guarantee that; a decoded
	// plan merely guaranteed acyclic is rejected up front rather than
	// failing mid-run on a nil proxy.
	for i, st := range p.Stages {
		for _, in := range st.Inputs {
			if in >= i {
				return nil, raiseRT("plan stages are not topologically ordered (stage %s depends on a later stage)", st.ID)
			}
		}
	}
	if ctx != nil {
		e.ExecCtx = ctx
	}
	if e.planProxies == nil {
		e.planProxies = map[string]*Proxy{}
	}
	shotsBefore := len(e.Screenshots)
	// The engine holds one plan's state: the previous run's pipeline
	// list, views and displays are replaced, not appended to, so a
	// long-lived session engine stays flat across turns.
	e.Pipeline = nil
	e.Views = nil
	e.Reps = map[repKey]*Proxy{}
	e.renderedOnce = map[*Proxy]bool{}

	hashes := p.StageHashes()
	proxies := make([]*Proxy, len(p.Stages))
	used := make(map[string]bool, len(p.Stages))

	// Pass 1: pipeline stages, views and displays, in plan order.
	for i, st := range p.Stages {
		switch {
		case st.IsPipeline():
			key := e.planExecKey(p, i, hashes)
			used[key] = true
			prox, ok := e.planProxies[key]
			if !ok {
				var err error
				if prox, err = e.buildPlanProxy(st, proxies); err != nil {
					return nil, err
				}
				e.planProxies[key] = prox
			}
			proxies[i] = prox
			e.Pipeline = append(e.Pipeline, prox)
			e.ActiveSource = prox
		case st.Kind == plan.StageView:
			view := e.newProxy(e.schema("RenderView"))
			view.RegName = st.ID
			for name, v := range st.Props {
				pv, err := e.planToPyValue(v)
				if err != nil {
					return nil, err
				}
				view.Props[name] = pv
			}
			e.Views = append(e.Views, view)
			e.ActiveView = view
			proxies[i] = view
		case st.Kind == plan.StageDisplay:
			if err := e.execPlanDisplay(st, proxies); err != nil {
				return nil, err
			}
		}
	}

	// The memo keeps only this plan's stages: a proxy the plan no longer
	// uses would otherwise pin its dataset for the engine's lifetime.
	for key := range e.planProxies {
		if !used[key] {
			delete(e.planProxies, key)
		}
	}

	// Pass 2: camera operations, per view, in recorded order (scripts
	// orient the camera after showing everything).
	for i, st := range p.Stages {
		if st.Kind != plan.StageView {
			continue
		}
		for _, op := range st.Camera {
			e.applyCameraOp(proxies[i], op)
		}
	}

	// Pass 3: screenshots.
	for _, st := range p.Stages {
		if st.Kind != plan.StageScreenshot {
			continue
		}
		if err := e.execPlanScreenshot(st, proxies); err != nil {
			return nil, err
		}
	}
	return append([]string(nil), e.Screenshots[shotsBefore:]...), nil
}

// planExecKey derives the incremental-execution key of a pipeline stage:
// its canonical subtree hash plus the identity (path, size, mtime) of
// every reader file in the subtree, mirroring the content the proxy
// cache keys (hash.go) encode.
func (e *Engine) planExecKey(p *plan.Plan, i int, hashes []string) string {
	var sb strings.Builder
	sb.WriteString(hashes[i])
	var walk func(j int)
	walk = func(j int) {
		st := p.Stages[j]
		if file := planReaderFile(st); file != "" {
			path := e.resolveData(file)
			if info, err := os.Stat(path); err == nil {
				fmt.Fprintf(&sb, "|%s:%d:%d", path, info.Size(), info.ModTime().UnixNano())
			} else {
				fmt.Fprintf(&sb, "|%s:unstattable", path)
			}
		}
		for _, in := range st.Inputs {
			walk(in)
		}
	}
	walk(i)
	return sb.String()
}

// planReaderFile extracts the input file of a reader stage.
func planReaderFile(st *plan.Stage) string {
	switch st.Class {
	case "LegacyVTKReader":
		if v, ok := st.Props["FileNames"]; ok {
			if v.Kind == plan.KindStr {
				return v.Str
			}
			if v.Kind == plan.KindList && len(v.List) > 0 && v.List[0].Kind == plan.KindStr {
				return v.List[0].Str
			}
		}
	case "ExodusIIReader":
		if v, ok := st.Props["FileName"]; ok && v.Kind == plan.KindStr {
			return v.Str
		}
	}
	return ""
}

// buildPlanProxy instantiates the proxy for a pipeline stage.
func (e *Engine) buildPlanProxy(st *plan.Stage, proxies []*Proxy) (*Proxy, error) {
	schema := e.schema(st.Class)
	if schema == nil {
		return nil, raiseRT("cannot execute plan stage of class %s", st.Class)
	}
	prox := e.newProxy(schema)
	prox.RegName = st.ID
	// Implicit helper defaults, exactly as the paraview.simple
	// constructors attach them: a normalized plan folds a default-valued
	// SliceType/ClipType away entirely, and execution must still see the
	// default Plane helper the script path would have.
	switch st.Class {
	case "Slice":
		prox.Props["SliceType"] = e.newProxy(e.schema("Plane"))
	case "Clip":
		prox.Props["ClipType"] = e.newProxy(e.schema("Plane"))
	case "StreamTracer":
		prox.Props["SeedType"] = e.newProxy(e.schema("Point Cloud"))
	case "Transform":
		prox.Props["Transform"] = e.newProxy(e.schema("TransformHelper"))
	}
	for name, v := range st.Props {
		pv, err := e.planToPyValue(v)
		if err != nil {
			return nil, err
		}
		prox.Props[name] = pv
	}
	if len(st.Inputs) > 0 {
		prox.Input = proxies[st.Inputs[0]]
	}
	return prox, nil
}

// execPlanDisplay realizes a display stage: representation creation plus
// the ColorBy / representation-type / rescale effects, with the same
// pipeline execution Show performs.
func (e *Engine) execPlanDisplay(st *plan.Stage, proxies []*Proxy) error {
	if len(st.Inputs) < 2 {
		return raiseRT("display stage %s has no resolved view", st.ID)
	}
	src, view := proxies[st.Inputs[0]], proxies[st.Inputs[1]]
	if src == nil || view == nil {
		return raiseRT("display stage %s references an unexecuted stage", st.ID)
	}
	// Show executes the pipeline eagerly; a failing filter fails here.
	ds, err := e.Dataset(src)
	if err != nil {
		return err
	}
	key := repKey{src, view}
	rep, ok := e.Reps[key]
	if !ok {
		rep = e.newProxy(e.schema("GeometryRepresentation"))
		rep.repOf = src
		rep.repView = view
		e.Reps[key] = rep
	}
	rep.Props["Visibility"] = pypy.Int(1)
	for name, v := range st.Props {
		switch name {
		case plan.PropColorArray, plan.PropRescaleTF:
			continue
		}
		pv, err := e.planToPyValue(v)
		if err != nil {
			return err
		}
		rep.Props[name] = pv
	}
	if ca, ok := st.Props[plan.PropColorArray]; ok {
		pv, err := e.planToPyValue(ca)
		if err != nil {
			return err
		}
		rep.Props["ColorArrayName"] = pv
		if ca.Kind == plan.KindList && len(ca.List) == 2 && ca.List[1].Kind == plan.KindStr {
			e.tfRangeFor(ca.List[1].Str, ds)
		}
	}
	if v, ok := st.Props[plan.PropRescaleTF]; ok && v.Kind == plan.KindBool && v.Bool {
		e.rescaleRepTF(rep)
	}
	return nil
}

// applyCameraOp performs one recorded camera operation on a view.
func (e *Engine) applyCameraOp(view *Proxy, op string) {
	if view == nil {
		return
	}
	switch op {
	case "ResetCamera":
		e.resetCamera(view)
	case "ApplyIsometricView", "ResetActiveCameraToIsometricView":
		e.lookFrom(view, vmath.V(1, 1, 1))
	case "ResetActiveCameraToPositiveX":
		e.lookFrom(view, vmath.V(1, 0, 0))
	case "ResetActiveCameraToNegativeX":
		e.lookFrom(view, vmath.V(-1, 0, 0))
	case "ResetActiveCameraToPositiveY":
		e.lookFrom(view, vmath.V(0, 1, 0))
	case "ResetActiveCameraToNegativeY":
		e.lookFrom(view, vmath.V(0, -1, 0))
	case "ResetActiveCameraToPositiveZ":
		e.lookFrom(view, vmath.V(0, 0, 1))
	case "ResetActiveCameraToNegativeZ":
		e.lookFrom(view, vmath.V(0, 0, -1))
	}
}

// execPlanScreenshot renders and saves one screenshot stage.
func (e *Engine) execPlanScreenshot(st *plan.Stage, proxies []*Proxy) error {
	if len(st.Inputs) < 1 || proxies[st.Inputs[0]] == nil {
		return raiseRT("screenshot stage %s has no resolved view", st.ID)
	}
	view := proxies[st.Inputs[0]]
	if err := e.renderPass(view); err != nil {
		return err
	}
	w, h := 0, 0
	if res, ok := st.Props[plan.PropImageResolution]; ok && res.Kind == plan.KindList && len(res.List) >= 2 {
		w, h = int(res.List[0].Num), int(res.List[1].Num)
	}
	palette := ""
	if v, ok := st.Props[plan.PropOverridePalette]; ok && v.Kind == plan.KindStr {
		palette = v.Str
	}
	filename := "screenshot.png"
	if v, ok := st.Props[plan.PropFilename]; ok && v.Kind == plan.KindStr {
		filename = v.Str
	}
	img, err := e.RenderViewImage(view, w, h, palette)
	if err != nil {
		return err
	}
	return e.writeScreenshot(filename, img)
}

package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"chatvis/internal/obs"
)

// maxSpansPerTrace mirrors the tracer's per-trace span cap: a trace
// holding this many spans may have lost some.
const maxSpansPerTrace = 512

// readerClasses are the pipeline sources whose stage spans are file
// reads (the vtkio layer) rather than filters.
var readerClasses = map[string]bool{"LegacyVTKReader": true, "ExodusIIReader": true}

// filterClasses are the filter stages reported by name; any other
// stage class folds into "other".
var filterClasses = []string{
	"Contour", "Slice", "Clip", "Delaunay3D", "StreamTracer",
	"Tube", "Glyph", "Threshold", "ExtractSurface", "Transform",
}

// layerTotals is the fold of a set of traces: self time and count per
// layer name, plus the outcome counts the share metrics need.
type layerTotals struct {
	self  map[string]time.Duration
	count map[string]int
	// execs / execFailed count script and plan executions.
	execs, execFailed int
	// llmCacheHits counts LLM calls the response cache answered.
	llmCacheHits int
}

// layerOf maps a span name to its per-layer metric stem ("" for spans
// no metric reads: HTTP server spans, job/turn wrappers).
func layerOf(name string) string {
	switch name {
	case "queue.wait":
		return "service.queue_wait"
	case "turn.wait":
		return "service.turn_wait"
	case "store.write":
		return "service.store_write"
	case "wal.append":
		return "cluster.wal_append"
	case "cluster.forward":
		return "cluster.forward"
	case "plan.validate":
		return "plan.validate"
	case "script.exec":
		return "pypy.script_exec"
	case "engine.exec-plan":
		return "pvsim.exec_plan"
	case "engine.seed-exec":
		return "pvsim.seed_exec"
	case "render.view":
		return "render.view"
	}
	if strings.HasPrefix(name, "llm.") {
		return "llm.call"
	}
	if class, ok := strings.CutPrefix(name, "stage."); ok {
		if readerClasses[class] {
			return "vtkio.read"
		}
		for _, c := range filterClasses {
			if c == class {
				return "filters.stage." + c
			}
		}
		return "filters.stage.other"
	}
	return ""
}

// collectTraces gathers every retained trace of every node, merging the
// spans one trace left on several nodes (a forwarded request), and
// checks that none was dropped: each trace the clients started is
// retained at the node it entered, no tracer reached its capacity, and
// no trace reached the per-trace span cap.
func collectTraces(nodes []*node, log *traceLog) (map[string][]obs.SpanData, error) {
	traces := map[string][]obs.SpanData{}
	for _, n := range nodes {
		if n.tracer.Len() >= traceCapacity {
			return nil, fmt.Errorf("tracer of %s is full; traces may have been evicted", n.tracer.Node())
		}
		for _, s := range n.tracer.List(0, false, 0) {
			td, ok := n.tracer.Get(s.TraceID)
			if !ok {
				return nil, fmt.Errorf("trace %s vanished from %s", s.TraceID, n.tracer.Node())
			}
			if len(td.Spans) >= maxSpansPerTrace {
				return nil, fmt.Errorf("trace %s holds %d spans, the tracer's cap; spans may have been dropped", s.TraceID, len(td.Spans))
			}
			traces[s.TraceID] = append(traces[s.TraceID], td.Spans...)
		}
	}
	log.mu.Lock()
	defer log.mu.Unlock()
	for id, n := range log.entry {
		if _, ok := n.tracer.Get(id); !ok {
			return nil, fmt.Errorf("trace %s sent to %s was not retained", id, n.tracer.Node())
		}
	}
	return traces, nil
}

// fold sums self time and counts per layer over the traces keep admits.
func fold(traces map[string][]obs.SpanData, keep func(traceID string) bool) layerTotals {
	t := layerTotals{self: map[string]time.Duration{}, count: map[string]int{}}
	for id, spans := range traces {
		if !keep(id) {
			continue
		}
		children := map[string][]int{}
		for i, s := range spans {
			children[s.ParentID] = append(children[s.ParentID], i)
		}
		for _, s := range spans {
			layer := layerOf(s.Name)
			if layer == "" {
				continue
			}
			t.self[layer] += selfTime(s, spans, children[s.SpanID])
			t.count[layer]++
			switch layer {
			case "pypy.script_exec", "pvsim.exec_plan":
				t.execs++
				if s.Err != "" {
					t.execFailed++
				}
			case "llm.call":
				if s.Attrs["cache_hit"] == "true" {
					t.llmCacheHits++
				}
			}
		}
	}
	return t
}

// selfTime is a span's duration minus the part of it its children's
// intervals cover.
func selfTime(s obs.SpanData, spans []obs.SpanData, kids []int) time.Duration {
	start, end := s.Start, s.Start.Add(s.Duration)
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := spans[k].Start, spans[k].Start.Add(spans[k].Duration)
		if a.Before(start) {
			a = start
		}
		if b.After(end) {
			b = end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var covered time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			covered += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		covered += cur.b.Sub(cur.a)
	}
	return s.Duration - covered
}

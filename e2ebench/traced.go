package main

import (
	"bytes"
	"fmt"
	"image/png"
	"path/filepath"
	"strings"
	"time"

	"chatvis/internal/render"
	"chatvis/internal/service"
)

// Caps on the direct timings, which run after the traced phase on the
// run's own requests and screenshots.
const (
	maxKeyTimings   = 2000
	maxPNGTimings   = 4
	maxStoreTimings = 16
)

// screenshotSource is a workload whose ops do not keep their
// screenshots (fleet-repeat fetches thousands), so the direct timings
// take them from the workload instead.
type screenshotSource interface {
	screenshots(max int) [][]byte
}

// baseline is what a traced run keeps of its untraced half.
type baseline struct {
	ops, failed  int
	cpu, elapsed time.Duration
	heap         []heapSample
}

// runTraced measures an untraced and a traced phase of d/2 each, the
// first for the tracing-overhead baseline and the memory slope, the
// second for the span fold, and prints the per-layer metrics.
func runTraced(setup func(string, int64, *traceLog) (workload, error), root string, seed int64, d time.Duration) (*report, error) {
	pu, failed, _, err := measureChecked(setup, filepath.Join(root, "untraced"), seed, d/2)
	if err != nil {
		return nil, err
	}
	bu := baseline{ops: len(pu.ops), failed: failed, cpu: pu.cpu, elapsed: pu.elapsed, heap: pu.heap}

	log := newTraceLog()
	wt, err := setup(filepath.Join(root, "traced"), seed, log)
	if err != nil {
		return nil, err
	}
	log.timed.Store(true)
	pt := measure(wt, d/2)
	log.timed.Store(false)
	direct, derr := directTimings(filepath.Join(root, "direct"), wt, pt.ops)
	if err := stopNodes(wt.nodes()); err != nil {
		return nil, err
	}
	if derr != nil {
		return nil, derr
	}
	if err := checkLag(pt); err != nil {
		return nil, err
	}
	traces, err := collectTraces(wt.nodes(), log)
	if err != nil {
		return nil, err
	}
	timed := fold(traces, func(id string) bool { return log.inRun[id] })
	setupFold := fold(traces, func(id string) bool { return !log.inRun[id] })

	ft := checkOps(pt.ops)
	_, turns := wt.(*editEnv)
	m := perLayer(bu, pt, timed, setupFold, direct, turns)
	if env, ok := wt.(*coldEnv); ok {
		m["chatvis.plan_similarity"] = metric{mean(env.similarity), "score"}
	} else {
		m["chatvis.plan_similarity"] = metric{0, "score"}
	}
	return &report{
		Correct: bu.failed+ft == 0, Attempted: bu.ops + len(pt.ops), Failed: bu.failed + ft, Metrics: m,
	}, nil
}

// direct holds the benchmark's own timings of public calls that have no
// span: key derivation, PNG encode+write, and a store round trip.
type direct struct {
	keyUS, pngMS, putMS, getMS float64
}

func directTimings(dir string, w workload, ops []opResult) (direct, error) {
	var out direct
	var keyTotal time.Duration
	nKeys := 0
	for _, op := range ops {
		if op.key == nil || nKeys == maxKeyTimings {
			continue
		}
		start := time.Now()
		op.key()
		keyTotal += time.Since(start)
		nKeys++
	}
	if nKeys > 0 {
		out.keyUS = float64(keyTotal) / float64(time.Microsecond) / float64(nKeys)
	}

	var shots [][]byte
	if src, ok := w.(screenshotSource); ok {
		shots = src.screenshots(maxStoreTimings)
	} else {
		for _, op := range ops {
			if op.png != nil && len(shots) < maxStoreTimings {
				shots = append(shots, op.png)
			}
		}
	}
	var encTotal time.Duration
	nEnc := 0
	for i, shot := range shots {
		if i == maxPNGTimings {
			break
		}
		img, err := png.Decode(bytes.NewReader(shot))
		if err != nil {
			return out, fmt.Errorf("decoding screenshot for the encode timing: %w", err)
		}
		start := time.Now()
		if err := render.SavePNG(filepath.Join(dir, "png", fmt.Sprintf("shot%d.png", i)), img); err != nil {
			return out, err
		}
		encTotal += time.Since(start)
		nEnc++
	}
	if nEnc > 0 {
		out.pngMS = ms(encTotal) / float64(nEnc)
	}

	store, err := service.NewStore(filepath.Join(dir, "store"))
	if err != nil {
		return out, err
	}
	var putTotal, getTotal time.Duration
	hashes := make([]string, len(shots))
	for i, shot := range shots {
		start := time.Now()
		h, err := store.Put(shot, "image/png")
		putTotal += time.Since(start)
		if err != nil {
			return out, err
		}
		hashes[i] = h
	}
	for _, h := range hashes {
		start := time.Now()
		_, _, err := store.Get(h)
		getTotal += time.Since(start)
		if err != nil {
			return out, err
		}
	}
	if len(shots) > 0 {
		out.putMS = ms(putTotal) / float64(len(shots))
		out.getMS = ms(getTotal) / float64(len(shots))
	}
	return out, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// perLayer computes the per-layer metrics. Span-time metrics are self
// time per completed op of the traced phase, in ms, unless named per
// call; seed_exec reads the set-up traces, where turn 1 runs.
func perLayer(bu baseline, pt phase, timed, setupFold layerTotals, d direct, turns bool) map[string]metric {
	n := float64(len(pt.ops))
	perOp := func(layer string) float64 { return ms(timed.self[layer]) / n }
	perCall := func(t layerTotals, layer string) float64 {
		if t.count[layer] == 0 {
			return 0
		}
		return ms(t.self[layer]) / float64(t.count[layer])
	}
	share := func(num, den int) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}

	var storeHits, executed, iterations int
	var stages []float64
	for _, op := range pt.ops {
		if op.storeHit {
			storeHits++
		}
		if op.executed {
			executed++
			iterations += op.iterations
			stages = append(stages, float64(op.stages))
		}
	}
	stagesPerTurn := mean(stages)
	if !turns {
		// Only session turns report ExecutionsDelta; elsewhere count the
		// stage spans the traced ops executed.
		var spans int
		for layer, c := range timed.count {
			if layer == "vtkio.read" || strings.HasPrefix(layer, "filters.stage.") {
				spans += c
			}
		}
		stagesPerTurn = float64(spans) / n
	}

	overhead := 0.0
	if len(pt.lags) > 0 {
		// Open loop: the rate is fixed, so tracing shows as CPU per op.
		overhead = (ms(pt.cpu)/n)/(ms(bu.cpu)/float64(bu.ops)) - 1
	} else {
		thrU := float64(bu.ops) / bu.elapsed.Seconds()
		thrT := n / pt.elapsed.Seconds()
		overhead = thrU/thrT - 1
	}
	lag := 0.0
	if len(pt.lags) > 0 {
		lag = lagP95(pt)
	}

	m := map[string]metric{
		"service.queue_wait_ms":      {perOp("service.queue_wait"), "ms"},
		"service.turn_wait_ms":       {perOp("service.turn_wait"), "ms"},
		"service.store_write_ms":     {perOp("service.store_write"), "ms"},
		"service.key_us":             {d.keyUS, "us"},
		"service.store_put_ms":       {d.putMS, "ms"},
		"service.store_get_ms":       {d.getMS, "ms"},
		"service.store_hit_share":    {share(storeHits, len(pt.ops)), "share"},
		"service.heap_kb_per_turn":   {slope(bu.heap) / 1024, "KB"},
		"cluster.forward_ms":         {perOp("cluster.forward"), "ms"},
		"cluster.forwards_per_op":    {float64(timed.count["cluster.forward"]) / n, "count"},
		"cluster.wal_append_ms":      {perOp("cluster.wal_append"), "ms"},
		"chatvis.iterations_per_job": {share(iterations, executed), "count"},
		"chatvis.exec_success_share": {share(timed.execs-timed.execFailed, timed.execs), "share"},
		"llm.calls_per_op":           {float64(timed.count["llm.call"]) / n, "count"},
		"llm.call_ms":                {perCall(timed, "llm.call"), "ms"},
		"llm.cache_hit_share":        {share(timed.llmCacheHits, timed.count["llm.call"]), "share"},
		"plan.validate_ms":           {perOp("plan.validate"), "ms"},
		"pypy.script_exec_self_ms":   {perOp("pypy.script_exec"), "ms"},
		"pvsim.exec_plan_self_ms":    {perOp("pvsim.exec_plan"), "ms"},
		"pvsim.stages_per_turn":      {stagesPerTurn, "count"},
		"pvsim.seed_exec_ms":         {perCall(setupFold, "pvsim.seed_exec"), "ms"},
		"vtkio.read_ms":              {perOp("vtkio.read"), "ms"},
		"par.imbalance_avg":          {pt.par.AvgImbalance, "ratio"},
		"par.busy_s_per_op":          {pt.par.Busy.Seconds() / n, "s"},
		"data.cache_hit_share":       {pt.dataCacheHitShare(), "share"},
		"data.cache_mb":              {pt.cacheMB, "MB"},
		"render.view_self_ms":        {perOp("render.view"), "ms"},
		"render.png_encode_ms":       {d.pngMS, "ms"},
		"obs.overhead_share":         {overhead, "share"},
		"loadgen.lag_p95_ms":         {lag, "ms"},
	}
	for _, c := range append(filterClasses, "other") {
		m["filters.stage_ms."+c] = metric{perOp("filters.stage." + c), "ms"}
	}
	return m
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"image/png"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"chatvis/internal/eval"
	"chatvis/internal/imgcmp"
	"chatvis/internal/plan"
	"chatvis/internal/pvpython"
	"chatvis/internal/pvsim"
	"chatvis/internal/service"
)

// coldClients is cold-paper's closed-loop client count.
const coldClients = 2

// pixelSampleEvery sets the seeded sample of cold-paper jobs whose
// pixels are compared against the ground-truth render after the timed
// phase: one job in this many.
const pixelSampleEvery = 16

// coldEnv is the cold-paper workload: one node on paper-scale data,
// every request a distinct Table II job.
type coldEnv struct {
	seed    int64
	root    string
	node    *node
	clients []*client
	sample  int // request indices ≡ sample (mod pixelSampleEvery) are pixel-checked

	simMu      sync.Mutex
	similarity []float64 // plan similarity to each job's ground-truth plan
}

func setupCold(root string, seed int64, log *traceLog) (workload, error) {
	if err := eval.EnsureData(filepath.Join(root, "node1", "data"), eval.DataFull); err != nil {
		return nil, err
	}
	nodes, err := startNodes(root, 1, eval.DataFull, log != nil)
	if err != nil {
		return nil, err
	}
	e := &coldEnv{
		seed: seed, root: root, node: nodes[0],
		sample: rngFor(seed, 4_000).Intn(pixelSampleEvery),
	}
	for c := 0; c < coldClients; c++ {
		e.clients = append(e.clients, newClient(log))
	}
	// Warm-up: one job per scenario, under names the timed requests never
	// use, so the dataset cache holds the inputs before timing starts.
	errs := make(chan error, len(paperIDs))
	var wg sync.WaitGroup
	for k, id := range paperIDs {
		wg.Add(1)
		go func(k int, id string) {
			defer wg.Done()
			r := coldRequestOf(id, seed, -1-k, "warmup")
			errs <- e.job(e.clients[k%coldClients], r, -1).err
		}(k, id)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			_ = stopNodes(nodes)
			return nil, fmt.Errorf("cold-paper warm-up: %w", err)
		}
	}
	return e, nil
}

func (e *coldEnv) nodes() []*node { return []*node{e.node} }

func (e *coldEnv) run(d time.Duration) phaseOps {
	ops := closedLoop(coldClients, d, func(c, i int) opResult {
		return e.job(e.clients[c], coldRequestFor(e.seed, i), i)
	})
	return phaseOps{ops: ops}
}

// job runs one cold-paper request end to end: submit, poll to a
// terminal state, fetch the screenshot. Request index i < 0 marks a
// warm-up job.
func (e *coldEnv) job(c *client, r coldRequest, i int) opResult {
	start := time.Now()
	res := opResult{key: func() string { return service.Key(r.Req) }}
	rep, code, err := c.submitJob(e.node, r.Req)
	if err == nil && (code != http.StatusAccepted || rep.Submission != service.SubmissionNew) {
		err = fmt.Errorf("job was answered as %q (status %d); cold requests must all be new", rep.Submission, code)
	}
	var view service.View
	if err == nil {
		view, err = c.waitJob(e.node, rep.ID)
	}
	if err == nil && (view.Status != service.StatusSucceeded || view.Result == nil || !view.Result.Success) {
		err = fmt.Errorf("%s job %s ended %s: %s", r.Scenario, view.ID, view.Status, view.Error)
	}
	var shot []byte
	if err == nil {
		res.executed = true
		res.iterations = view.Result.Iterations
		if hs := view.Result.ScreenshotHashes; len(hs) == 0 {
			err = fmt.Errorf("%s job %s stored no screenshot", r.Scenario, view.ID)
		} else {
			shot, err = c.fetch(e.node, hs[len(hs)-1])
		}
	}
	res.lat = time.Since(start)
	if err == nil {
		err = checkSize(shot, paperW, paperH)
	}
	if err == nil {
		res.png = shot
		planJSON := view.Result.Plan
		res.post = func() error { return e.recordSimilarity(r, planJSON) }
		if i >= 0 && i%pixelSampleEvery == e.sample {
			res.post = func() error {
				if err := e.recordSimilarity(r, planJSON); err != nil {
					return err
				}
				return e.checkPixels(r, shot)
			}
		}
	}
	res.err = err
	return res
}

// recordSimilarity scores the job's plan against the ground-truth plan
// of its scenario at the request's values.
func (e *coldEnv) recordSimilarity(r coldRequest, planJSON json.RawMessage) error {
	if len(planJSON) == 0 {
		return fmt.Errorf("%s job carries no plan", r.Scenario)
	}
	got, err := plan.Decode(planJSON)
	if err != nil {
		return fmt.Errorf("%s job plan: %w", r.Scenario, err)
	}
	schema := pvsim.PlanSchema()
	compiled, err := plan.Compile(r.GroundTruth, schema)
	if err != nil {
		return fmt.Errorf("%s ground truth: %w", r.Scenario, err)
	}
	score := plan.Similarity(got, plan.Normalize(compiled.Plan, schema))
	e.simMu.Lock()
	e.similarity = append(e.similarity, score.Overall)
	e.simMu.Unlock()
	return nil
}

// checkPixels renders the request's ground truth and requires the job's
// screenshot to match it as the paper's evaluation judges images.
func (e *coldEnv) checkPixels(r coldRequest, shot []byte) error {
	runner := &pvpython.Runner{
		DataDir: filepath.Join(e.root, "node1", "data"),
		OutDir:  filepath.Join(e.root, "ground_truth", r.Screenshot),
	}
	out := runner.Exec(r.GroundTruth)
	if !out.OK() || len(out.Screenshots) == 0 {
		return fmt.Errorf("%s ground truth failed: %.300s", r.Scenario, out.Output)
	}
	gt := out.Engine.Rendered[out.Screenshots[len(out.Screenshots)-1]]
	if gt == nil {
		return fmt.Errorf("%s ground truth rendered nothing", r.Scenario)
	}
	img, err := png.Decode(bytes.NewReader(shot))
	if err != nil {
		return fmt.Errorf("%s screenshot: %w", r.Scenario, err)
	}
	m, err := imgcmp.Compare(gt, img)
	if err != nil {
		return fmt.Errorf("%s screenshot vs ground truth: %w", r.Scenario, err)
	}
	if !imgcmp.MatchesGroundTruth(m, gt, img) {
		_, gtFrac := imgcmp.ForegroundMask(gt)
		_, imgFrac := imgcmp.ForegroundMask(img)
		return fmt.Errorf("%s screenshot %s does not match its ground truth (%s; foreground %.4f, ground truth %.4f)",
			r.Scenario, r.Screenshot, m, imgFrac, gtFrac)
	}
	return nil
}

// checkSize requires a PNG that decodes at the requested size.
func checkSize(shot []byte, w, h int) error {
	cfg, err := png.DecodeConfig(bytes.NewReader(shot))
	if err != nil {
		return fmt.Errorf("screenshot does not decode: %w", err)
	}
	if cfg.Width != w || cfg.Height != h {
		return fmt.Errorf("screenshot is %dx%d, requested %dx%d", cfg.Width, cfg.Height, w, h)
	}
	return nil
}

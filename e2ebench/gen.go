package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"chatvis/internal/eval"
	"chatvis/internal/service"
)

// Workload names, as BENCHMARK.json lists them.
const (
	wlColdPaper   = "cold-paper"
	wlEditSession = "edit-session"
	wlFleetRepeat = "fleet-repeat"
)

// The paper's resolution: every cold-paper and edit-session screenshot
// is requested (and checked) at this size.
const paperW, paperH = 1920, 1080

// model is the LLM every workload requests (chatvisd's default).
const model = "gpt-4"

// rngFor returns a generator stream determined by the workload seed and
// a stream index only, so request i is the same whichever client draws
// it and in whatever order.
func rngFor(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + stream*7_919 + 17))
}

// --- cold-paper -------------------------------------------------------------

// paperIDs are the five Table II scenarios.
var paperIDs = []string{"iso", "slice", "volume", "delaunay", "stream"}

// coldRequest is one cold-paper job: a Table II prompt whose screenshot
// name (and, for iso and slice, whose isovalue or slice offset) the seed
// varies, with the ground-truth script for exactly those values.
type coldRequest struct {
	Scenario    string
	Screenshot  string
	Req         service.JobRequest
	GroundTruth string
}

// replaceOnce substitutes old with new in s and panics unless old occurs
// exactly once: a scenario text that drifted from what the generator
// expects is a benchmark bug, not a measurement.
func replaceOnce(s, old, new string) string {
	if n := strings.Count(s, old); n != 1 {
		panic(fmt.Sprintf("e2ebench: %q occurs %d times in scenario text", old, n))
	}
	return strings.Replace(s, old, new, 1)
}

// coldRequestFor builds request i of a seed. Scenarios come in blocks of
// five, each block a seeded permutation of the paper's five, so every
// run carries the same mix.
func coldRequestFor(seed int64, i int) coldRequest {
	perm := rngFor(seed, int64(i/len(paperIDs))).Perm(len(paperIDs))
	id := paperIDs[perm[i%len(paperIDs)]]
	return coldRequestOf(id, seed, i, fmt.Sprintf("s%d-%d", seed, i))
}

// coldRequestOf renders one scenario's request; tag makes the screenshot
// name, and with it the job key and every LLM cache entry, unique.
func coldRequestOf(id string, seed int64, i int, tag string) coldRequest {
	scn, ok := eval.ScenarioByID(id)
	if !ok {
		panic("e2ebench: unknown scenario " + id)
	}
	rng := rngFor(seed, int64(-1-i))
	prompt := scn.UserPrompt(paperW, paperH)
	gt := scn.GroundTruthScript(paperW, paperH)
	switch id {
	case "iso":
		v := strconv.FormatFloat(0.45+0.1*rng.Float64(), 'f', 3, 64)
		prompt = replaceOnce(prompt, "at value 0.5.", "at value "+v+".")
		gt = replaceOnce(gt, "contour1.Isosurfaces = [0.5]", "contour1.Isosurfaces = ["+v+"]")
	case "slice":
		x := strconv.FormatFloat(-0.2+0.4*rng.Float64(), 'f', 2, 64)
		prompt = replaceOnce(prompt, "at x=0.", "at x="+x+".")
		gt = replaceOnce(gt, "slice1.SliceType.Origin = [0.0, 0.0, 0.0]", "slice1.SliceType.Origin = ["+x+", 0.0, 0.0]")
	}
	shot := strings.TrimSuffix(scn.Screenshot, ".png") + "-" + tag + ".png"
	prompt = replaceOnce(prompt, scn.Screenshot, shot)
	gt = replaceOnce(gt, "'"+scn.Screenshot+"'", "'"+shot+"'")
	return coldRequest{
		Scenario:   id,
		Screenshot: shot,
		Req: service.JobRequest{
			Prompt: prompt, Model: model, Width: paperW, Height: paperH,
		},
		GroundTruth: gt,
	}
}

// --- edit-session -----------------------------------------------------------

// editSessionIDs are the scenarios whose prompts open the two warm
// sessions (turn 1, run in set-up): the isosurface and the slice-then-
// contour pipelines of Table II.
var editSessionIDs = []string{"iso", "slice"}

// editState is the part of a session's plan the edit grammar moves. The
// generator never revisits a state, so no (parent plan, edit) pair
// repeats and no turn is answered by turn coalescing.
type editState struct {
	value  int    // isovalue in thousandths (iso) or slice offset in hundredths (slice)
	axis   string // slice-plane axis
	color  string // "" keeps the scenario's colouring
	camera string
}

var (
	editColors  = []string{"red", "green", "blue", "yellow", "orange", "purple", "var0"}
	editCameras = []string{"isometric", "+X", "-X", "+Y", "-Y", "+Z", "-Z"}
)

// editBlock is the edit mix: every block of four turns is a seeded
// permutation of two value edits (isovalue or slice plane: the filter
// work), one colour edit and one camera edit (render work only), so
// every run and every seed carries the same mix.
var editBlock = []string{"value", "value", "color", "camera"}

// editGen yields one session's seeded chain of one-parameter edits.
type editGen struct {
	kind    string // "iso" or "slice"
	rng     *rand.Rand
	cur     editState
	visited map[editState]bool
	block   []string // edit kinds left in the current block
}

func newEditGen(seed int64, session int) *editGen {
	kind := editSessionIDs[session%len(editSessionIDs)]
	g := &editGen{kind: kind, rng: rngFor(seed, int64(1_000+session)), visited: map[editState]bool{}}
	// The scenario prompts' own settings: iso at 0.5 with the default
	// camera; slice at x=0, contour coloured red, looking down +x.
	if kind == "iso" {
		g.cur = editState{value: 500, camera: "default"}
	} else {
		g.cur = editState{value: 0, axis: "x", color: "red", camera: "+X"}
	}
	g.visited[g.cur] = true
	return g
}

// next draws the next edit utterance. It only returns edits that lead to
// a state the chain has not been in; a colour or camera edit that finds
// none left in the current state gives way to a value edit, which always
// can.
func (g *editGen) next() string {
	if len(g.block) == 0 {
		g.block = append([]string(nil), editBlock...)
		g.rng.Shuffle(len(g.block), func(i, j int) { g.block[i], g.block[j] = g.block[j], g.block[i] })
	}
	kind := g.block[0]
	g.block = g.block[1:]
	for tries := 0; ; tries++ {
		if tries == 50 {
			kind = "value"
		}
		st, utter := g.draw(kind)
		if !g.visited[st] {
			g.visited[st] = true
			g.cur = st
			return utter
		}
	}
}

// draw proposes one edit of a kind against the current state.
func (g *editGen) draw(kind string) (editState, string) {
	st := g.cur
	switch kind {
	case "value":
		if g.kind == "iso" {
			st.value = 450 + g.rng.Intn(101)
			return st, "Change the isovalue to " + strconv.FormatFloat(float64(st.value)/1000, 'f', 3, 64) + "."
		}
		st.axis = []string{"x", "y", "z"}[g.rng.Intn(3)]
		st.value = g.rng.Intn(61) - 30
		return st, "Move the slice plane to " + st.axis + "=" + strconv.FormatFloat(float64(st.value)/100, 'f', 2, 64) + "."
	case "color":
		st.color = editColors[g.rng.Intn(len(editColors))]
		if st.color == "var0" {
			return st, "Color the result by the var0 data array."
		}
		return st, "Color the result " + st.color + "."
	default:
		st.camera = editCameras[g.rng.Intn(len(editCameras))]
		if st.camera == "isometric" {
			return st, "Rotate the view to an isometric direction."
		}
		return st, "View the result in the " + st.camera + " direction."
	}
}

// --- fleet-repeat -----------------------------------------------------------

// Fleet-repeat load shape: an open loop of single requests, each a
// submit plus a screenshot fetch. The workload is not in BENCHMARK.json:
// its ~2.5 ms p95 swung 2.4–4.8 ms between runs on a 2-core VM with host
// stalls, wider than any gate allows, so it runs by hand
// (--workload fleet-repeat) for the cluster and store-read layers.
const (
	fleetNodes = 3
	fleetRate  = 200 // requests/s
	zipfS      = 1.2
)

// fleetResolutions size the pool's screenshots: every registered
// scenario at chatvisd's default resolution and at twice it.
var fleetResolutions = [][2]int{{480, 270}, {960, 540}}

// fleetPool returns the prompts fleet-repeat executes in set-up, in
// their Zipf popularity order. The order is fixed, not seeded, so every
// seed serves the same mix of screenshot sizes; the seed draws the
// request sequence.
func fleetPool() []service.JobRequest {
	var pool []service.JobRequest
	for _, scn := range eval.Scenarios() {
		for _, res := range fleetResolutions {
			pool = append(pool, service.JobRequest{
				Prompt: scn.UserPrompt(res[0], res[1]), Model: model,
				Width: res[0], Height: res[1],
			})
		}
	}
	return pool
}

// fleetPick is one fleet-repeat request: which pool entry, and which of
// its non-owner nodes it enters at (0 or 1).
type fleetPick struct {
	Pool  int
	Entry int
}

// fleetSchedule draws n requests: Zipf-distributed pool picks and a
// uniform choice between the two non-owner entry nodes.
func fleetSchedule(seed int64, poolSize, n int) []fleetPick {
	rng := rngFor(seed, 3_000)
	z := rand.NewZipf(rng, zipfS, 1, uint64(poolSize-1))
	picks := make([]fleetPick, n)
	for i := range picks {
		picks[i] = fleetPick{Pool: int(z.Uint64()), Entry: rng.Intn(fleetNodes - 1)}
	}
	return picks
}

package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"chatvis/internal/eval"
	"chatvis/internal/llm"
	"chatvis/internal/plan"
	"chatvis/internal/pvsim"
	"chatvis/internal/service"
)

func TestSameSeedSameRequests(t *testing.T) {
	for i := 0; i < 20; i++ {
		if a, b := coldRequestFor(7, i), coldRequestFor(7, i); !reflect.DeepEqual(a, b) {
			t.Fatalf("cold request %d differs between draws of one seed", i)
		}
	}
	if reflect.DeepEqual(coldRequestFor(7, 0), coldRequestFor(8, 0)) {
		t.Fatal("cold request 0 is the same for seeds 7 and 8")
	}
	for s := 0; s < len(editSessionIDs); s++ {
		a, b := newEditGen(7, s), newEditGen(7, s)
		for i := 0; i < 40; i++ {
			if ua, ub := a.next(), b.next(); ua != ub {
				t.Fatalf("session %d edit %d: %q vs %q", s, i, ua, ub)
			}
		}
	}
	if a, b := fleetSchedule(7, 24, 500), fleetSchedule(7, 24, 500); !reflect.DeepEqual(a, b) {
		t.Fatal("fleet schedule differs between draws of one seed")
	}
}

func TestColdKeysPairwiseDistinct(t *testing.T) {
	seen := map[string]int{}
	mix := map[string]int{}
	for i := 0; i < 60; i++ {
		r := coldRequestFor(3, i)
		k := service.Key(r.Req)
		if j, dup := seen[k]; dup {
			t.Fatalf("cold requests %d and %d share job key %s", j, i, k)
		}
		seen[k] = i
		mix[r.Scenario]++
		// The intent parser must read the seeded values back: the prompt
		// asks for the screenshot name and size the checks expect.
		spec := llm.ParseIntent(r.Req.Prompt)
		if spec.Screenshot != r.Screenshot || spec.Width != paperW || spec.Height != paperH {
			t.Fatalf("request %d parses to %s %dx%d, want %s %dx%d",
				i, spec.Screenshot, spec.Width, spec.Height, r.Screenshot, paperW, paperH)
		}
		if _, err := plan.Compile(r.GroundTruth, pvsim.PlanSchema()); err != nil {
			t.Fatalf("request %d ground truth does not compile: %v", i, err)
		}
	}
	for _, id := range paperIDs {
		if mix[id] != 60/len(paperIDs) {
			t.Fatalf("scenario mix %v is not balanced", mix)
		}
	}
}

func TestEditChainsChangeThePlan(t *testing.T) {
	schema := pvsim.PlanSchema()
	for k, id := range editSessionIDs {
		scn, _ := eval.ScenarioByID(id)
		compiled, err := plan.Compile(scn.GroundTruthScript(paperW, paperH), schema)
		if err != nil {
			t.Fatal(err)
		}
		cur := plan.Normalize(compiled.Plan, schema)
		seen := map[string]bool{cur.Hash(): true}
		g := newEditGen(11, k)
		for i := 0; i < 80; i++ {
			u := g.next()
			intent := llm.ParseEditIntent(u)
			if len(intent.Edits) != 1 {
				t.Fatalf("%s edit %q parses to %d edits, want 1", id, u, len(intent.Edits))
			}
			// A plan seen before would let the turn coalesce onto an
			// earlier one (same parent plan, same edit) or leave it
			// unchanged.
			cur = plan.Normalize(llm.ApplyEdits(cur, intent), schema)
			if seen[cur.Hash()] {
				t.Fatalf("%s edit %d %q leads back to a plan the chain already had", id, i, u)
			}
			seen[cur.Hash()] = true
		}
	}
}

func TestBenchmarkJSONRecordsWorkloads(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		Workloads []struct{ Name, Why string }
	}
	if err := json.Unmarshal(blob, &cfg); err != nil {
		t.Fatal(err)
	}
	for _, w := range cfg.Workloads {
		if _, ok := setups[w.Name]; !ok || w.Why == "" {
			t.Fatalf("BENCHMARK.json workload %q is not one this benchmark runs, or has no reason", w.Name)
		}
	}
	if len(cfg.Workloads) < 2 {
		t.Fatalf("BENCHMARK.json lists %d workloads, want at least 2", len(cfg.Workloads))
	}
}

func TestFleetPoolStoredBeforeTiming(t *testing.T) {
	if testing.Short() {
		t.Skip("executes the fleet pool")
	}
	root := t.TempDir()
	w, err := setupFleet(root, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	e := w.(*fleetEnv)
	if err := stopNodes(e.fleet); err != nil {
		t.Fatal(err)
	}
	// Read the shared store back cold, as a node started after set-up
	// would: every pool key must resolve to its screenshot.
	store, err := service.NewStore(filepath.Join(root, "store"))
	if err != nil {
		t.Fatal(err)
	}
	if len(e.pool) != len(fleetPool()) {
		t.Fatalf("pool holds %d entries, want %d", len(e.pool), len(fleetPool()))
	}
	for i, pe := range e.pool {
		res, ok := store.GetResult(pe.key)
		if !ok || !res.Success {
			t.Fatalf("pool entry %d (key %.12s) is not stored as a success", i, pe.key)
		}
		shot, _, err := store.Get(pe.shot)
		if err != nil || service.HashBytes(shot) != pe.shot {
			t.Fatalf("pool entry %d screenshot %.12s is not stored intact: %v", i, pe.shot, err)
		}
	}
}

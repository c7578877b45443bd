package main

import (
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"chatvis/internal/eval"
	"chatvis/internal/llm"
	"chatvis/internal/plan"
	"chatvis/internal/pvsim"
	"chatvis/internal/service"
)

// editSession is one warm conversational session and the client that
// drives it.
type editSession struct {
	id     string
	client *client
	gen    *editGen
	parent *plan.Plan // the session's current plan, as the edits predict it
}

// editEnv is the edit-session workload: two warm sessions on one node,
// each a closed loop of seeded one-parameter edits.
type editEnv struct {
	node     *node
	sessions []*editSession
	heap     heapSampler
}

func setupEdit(root string, seed int64, log *traceLog) (workload, error) {
	if err := eval.EnsureData(filepath.Join(root, "node1", "data"), eval.DataFull); err != nil {
		return nil, err
	}
	nodes, err := startNodes(root, 1, eval.DataFull, log != nil)
	if err != nil {
		return nil, err
	}
	e := &editEnv{node: nodes[0]}
	errs := make([]error, len(editSessionIDs))
	var wg sync.WaitGroup
	for k := range editSessionIDs {
		s := &editSession{client: newClient(log), gen: newEditGen(seed, k)}
		e.sessions = append(e.sessions, s)
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			errs[k] = e.firstTurn(s, editSessionIDs[k])
		}(k)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			_ = stopNodes(nodes)
			return nil, fmt.Errorf("edit-session turn 1: %w", err)
		}
	}
	return e, nil
}

// firstTurn creates a session and runs its scenario prompt as turn 1.
func (e *editEnv) firstTurn(s *editSession, scenario string) error {
	var view service.SessionView
	req := service.SessionRequest{Model: model, Width: paperW, Height: paperH}
	if err := s.client.call(e.node, http.MethodPost, "/v1/sessions", req, http.StatusCreated, &view); err != nil {
		return err
	}
	s.id = view.ID
	scn, _ := eval.ScenarioByID(scenario)
	turn, err := e.turn(s, scn.UserPrompt(paperW, paperH))
	if err != nil {
		return err
	}
	if turn.Status != service.StatusSucceeded || !turn.Success {
		return fmt.Errorf("session %s turn 1 ended %s: %s", s.id, turn.Status, turn.Error)
	}
	return e.resync(s)
}

// resync reads the session's current plan back from the daemon.
func (e *editEnv) resync(s *editSession) error {
	var view service.SessionView
	if err := s.client.call(e.node, http.MethodGet, "/v1/sessions/"+s.id, nil, http.StatusOK, &view); err != nil {
		return err
	}
	p, err := plan.Decode(view.Plan)
	if err != nil {
		return fmt.Errorf("session %s plan: %w", s.id, err)
	}
	s.parent = p
	return nil
}

// turn submits one utterance and waits for the turn to finish; it must
// be a new turn, never coalesced.
func (e *editEnv) turn(s *editSession, utter string) (service.TurnView, error) {
	var rep turnReply
	if err := s.client.call(e.node, http.MethodPost, "/v1/sessions/"+s.id+"/turns",
		service.TurnRequest{Prompt: utter}, http.StatusAccepted, &rep); err != nil {
		return rep.TurnView, err
	}
	if rep.Submission != service.SubmissionNew {
		return rep.TurnView, fmt.Errorf("turn %q was answered as %q; every edit must be new", utter, rep.Submission)
	}
	return s.client.waitTurn(e.node, s.id, rep.ID)
}

func (e *editEnv) nodes() []*node { return []*node{e.node} }

func (e *editEnv) run(d time.Duration) phaseOps {
	ops := closedLoop(len(e.sessions), d, func(c, _ int) opResult {
		return e.edit(e.sessions[c])
	})
	return phaseOps{ops: ops, heap: e.heap.samples}
}

// edit runs one measured edit turn and checks it: the turn succeeded,
// its plan is the parent plan with the utterance's edits applied (what
// the multi-turn evaluation scores against), and its screenshot decodes
// at the paper's size.
func (e *editEnv) edit(s *editSession) opResult {
	utter := s.gen.next()
	parentHash := s.parent.Hash()
	res := opResult{key: func() string { return service.TurnKey(parentHash, utter) }}
	start := time.Now()
	view, err := e.turn(s, utter)
	if err == nil && (view.Status != service.StatusSucceeded || !view.Success) {
		err = fmt.Errorf("turn %q ended %s: %s", utter, view.Status, view.Error)
	}
	var shot []byte
	if err == nil {
		res.executed = true
		res.iterations = view.Iterations
		res.stages = view.ExecutionsDelta
		if len(view.ScreenshotHashes) == 0 {
			err = fmt.Errorf("turn %q stored no screenshot", utter)
		} else {
			shot, err = s.client.fetch(e.node, view.ScreenshotHashes[len(view.ScreenshotHashes)-1])
		}
	}
	res.lat = time.Since(start)
	e.heap.record()
	if err == nil {
		err = checkSize(shot, paperW, paperH)
	}
	if err == nil {
		res.png = shot
		want := plan.Normalize(llm.ApplyEdits(s.parent, llm.ParseEditIntent(utter)), pvsim.PlanSchema())
		if view.PlanHash != want.Hash() {
			err = fmt.Errorf("turn %q produced plan %.12s, the edit grammar predicts %.12s", utter, view.PlanHash, want.Hash())
		} else {
			s.parent = want
		}
	}
	if err != nil {
		res.err = err
		if rerr := e.resync(s); rerr != nil {
			res.err = fmt.Errorf("%w; resync: %v", err, rerr)
		}
	}
	return res
}

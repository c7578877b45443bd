package main

import (
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"chatvis/internal/eval"
	"chatvis/internal/service"
)

// fleetWorkers is fleet-repeat's count of concurrent callers.
const fleetWorkers = 2

// fleetEntry is one stored pool prompt.
type fleetEntry struct {
	req       service.JobRequest
	key       string
	shot      string  // screenshot hash recorded in set-up
	nonOwners []*node // the two nodes that must forward it
}

// fleetEnv is the fleet-repeat workload: three nodes sharing one store,
// every request a store hit entering at a non-owner node.
type fleetEnv struct {
	seed    int64
	fleet   []*node
	pool    []fleetEntry
	clients []*client
}

func setupFleet(root string, seed int64, log *traceLog) (workload, error) {
	for i := 1; i <= fleetNodes; i++ {
		if err := eval.EnsureData(filepath.Join(root, fmt.Sprintf("node%d", i), "data"), eval.DataSmall); err != nil {
			return nil, err
		}
	}
	nodes, err := startNodes(root, fleetNodes, eval.DataSmall, log != nil)
	if err != nil {
		return nil, err
	}
	e := &fleetEnv{seed: seed, fleet: nodes}
	for w := 0; w < fleetWorkers; w++ {
		e.clients = append(e.clients, newClient(log))
	}
	if err := e.fillPool(); err != nil {
		_ = stopNodes(nodes)
		return nil, fmt.Errorf("fleet-repeat pool: %w", err)
	}
	return e, nil
}

// fillPool executes every pool prompt once, entering at nodes in turn,
// then checks that each result is stored under its key at its owner.
func (e *fleetEnv) fillPool() error {
	reqs := fleetPool()
	e.pool = make([]fleetEntry, len(reqs))
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	for w := 0; w < fleetWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(reqs); i += fleetWorkers {
				entry := e.fleet[i%len(e.fleet)]
				rep, _, err := e.clients[w].submitJob(entry, reqs[i])
				if err == nil {
					_, err = e.clients[w].waitJob(entry, rep.ID)
				}
				errs[i] = err
			}
		}(w)
	}
	wg.Wait()
	for i, req := range reqs {
		if errs[i] != nil {
			return errs[i]
		}
		pe, err := e.stored(req)
		if err != nil {
			return fmt.Errorf("pool entry %d: %w", i, err)
		}
		e.pool[i] = pe
	}
	return nil
}

// stored looks a pool request up at its ring owner's store.
func (e *fleetEnv) stored(req service.JobRequest) (fleetEntry, error) {
	pe := fleetEntry{req: req, key: service.Key(req)}
	var owner *node
	for _, n := range e.fleet {
		if o, ok := n.cluster.Owner(pe.key); ok && n.cluster.IsSelf(o) {
			owner = n
		} else {
			pe.nonOwners = append(pe.nonOwners, n)
		}
	}
	if owner == nil || len(pe.nonOwners) != fleetNodes-1 {
		return pe, fmt.Errorf("key %.12s has no single owner", pe.key)
	}
	res, ok := owner.store.GetResult(pe.key)
	if !ok || !res.Success || len(res.ScreenshotHashes) == 0 {
		return pe, fmt.Errorf("key %.12s is not stored with a screenshot at its owner %s", pe.key, owner.id)
	}
	pe.shot = res.ScreenshotHashes[len(res.ScreenshotHashes)-1]
	if !owner.store.Has(pe.shot) {
		return pe, fmt.Errorf("screenshot %.12s of key %.12s is missing from the store", pe.shot, pe.key)
	}
	return pe, nil
}

func (e *fleetEnv) nodes() []*node { return e.fleet }

func (e *fleetEnv) run(d time.Duration) phaseOps {
	n := int(d.Seconds() * fleetRate)
	sched := fleetSchedule(e.seed, len(e.pool), n)
	ops, lags := openLoop(fleetWorkers, fleetRate, n, func(w, i int, due time.Time) opResult {
		return e.repeat(e.clients[w], sched[i], due)
	})
	return phaseOps{ops: ops, lags: lags}
}

// repeat submits a stored prompt at a non-owner node, which forwards it
// to the owner's store hit, then fetches the screenshot there; it is
// timed from when it was due.
func (e *fleetEnv) repeat(c *client, p fleetPick, due time.Time) opResult {
	pe := e.pool[p.Pool]
	entry := pe.nonOwners[p.Entry]
	res := opResult{key: func() string { return service.Key(pe.req) }}
	rep, code, err := c.submitJob(entry, pe.req)
	if err == nil {
		res.storeHit = rep.Submission == service.SubmissionStoreHit
		switch {
		case code != http.StatusOK || !res.storeHit:
			err = fmt.Errorf("repeat of %.12s was answered as %q (status %d), not from the store", pe.key, rep.Submission, code)
		case rep.Result == nil || len(rep.Result.ScreenshotHashes) == 0 ||
			rep.Result.ScreenshotHashes[len(rep.Result.ScreenshotHashes)-1] != pe.shot:
			err = fmt.Errorf("repeat of %.12s names another screenshot than set-up stored", pe.key)
		}
	}
	var shot []byte
	if err == nil {
		shot, err = c.fetch(entry, pe.shot)
	}
	res.lat = time.Since(due)
	if err == nil && service.HashBytes(shot) != pe.shot {
		err = fmt.Errorf("fetched screenshot of %.12s does not hash to %.12s", pe.key, pe.shot)
	}
	res.err = err
	return res
}

// screenshots reads pool screenshots back from the shared store for
// the direct timings.
func (e *fleetEnv) screenshots(max int) [][]byte {
	var out [][]byte
	for _, pe := range e.pool {
		if len(out) == max {
			break
		}
		if blob, _, err := e.fleet[0].store.Get(pe.shot); err == nil {
			out = append(out, blob)
		}
	}
	return out
}

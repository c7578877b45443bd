package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"chatvis/internal/obs"
	"chatvis/internal/service"
)

// pollEvery is how often a client polls a job or turn it waits on: the
// latency it adds (half of it on average) is small against the
// 100-1000 ms operations it waits for.
const pollEvery = 5 * time.Millisecond

// traceLog records the trace ID of every request a traced run sends,
// with the node it entered at and whether it was sent in the timed
// phase, so the fold can check that no trace was dropped and can tell
// set-up traces from timed ones.
type traceLog struct {
	timed atomic.Bool

	mu    sync.Mutex
	entry map[string]*node // trace ID → entry node
	inRun map[string]bool  // trace IDs sent while timed
}

func newTraceLog() *traceLog {
	return &traceLog{entry: map[string]*node{}, inRun: map[string]bool{}}
}

func (l *traceLog) add(n *node, traceID string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.entry[traceID] = n
	if l.timed.Load() {
		l.inRun[traceID] = true
	}
}

// client is one load-generating caller with its own connection per node.
type client struct {
	hc  *http.Client
	log *traceLog // nil when untraced
}

func newClient(log *traceLog) *client {
	return &client{
		hc: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
			Timeout:   120 * time.Second,
		},
		log: log,
	}
}

// send performs one request against a node and returns the status code
// and body. A traced client starts a fresh trace per request through
// the W3C traceparent header.
func (c *client) send(n *node, method, path string, in any) (int, []byte, error) {
	var body io.Reader
	if in != nil {
		blob, err := json.Marshal(in)
		if err != nil {
			return 0, nil, err
		}
		body = bytes.NewReader(blob)
	}
	req, err := http.NewRequest(method, n.url+path, body)
	if err != nil {
		return 0, nil, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.log != nil {
		sc := obs.SpanContext{TraceID: obs.NewTraceID(), SpanID: obs.NewSpanID()}
		req.Header.Set(obs.TraceparentHeader, sc.Traceparent())
		c.log.add(n, sc.TraceID)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	return resp.StatusCode, blob, err
}

// call sends a JSON request and decodes the JSON reply into out,
// requiring the status code want.
func (c *client) call(n *node, method, path string, in any, want int, out any) error {
	code, blob, err := c.send(n, method, path, in)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if code != want {
		return fmt.Errorf("%s %s: status %d, want %d: %.200s", method, path, code, want, blob)
	}
	if err := json.Unmarshal(blob, out); err != nil {
		return fmt.Errorf("%s %s: decoding reply: %w", method, path, err)
	}
	return nil
}

// fetch downloads one stored artifact.
func (c *client) fetch(n *node, hash string) ([]byte, error) {
	code, blob, err := c.send(n, http.MethodGet, "/v1/artifacts/"+hash, nil)
	if err != nil {
		return nil, fmt.Errorf("fetching artifact: %w", err)
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("fetching artifact %.12s: status %d", hash, code)
	}
	return blob, nil
}

// submitReply is the part of the POST /v1/jobs body the workloads read;
// decoding no more keeps the load generator's own work small.
type submitReply struct {
	ID         string             `json:"id"`
	Submission service.Submission `json:"submission"`
	Result     *struct {
		ScreenshotHashes []string `json:"screenshot_hashes"`
	} `json:"result"`
}

// turnReply is the POST /v1/sessions/{id}/turns body.
type turnReply struct {
	service.TurnView
	Submission service.Submission `json:"submission"`
}

// submitJob posts a job and returns the reply, accepting 202 (queued)
// and 200 (answered from the store).
func (c *client) submitJob(n *node, req service.JobRequest) (submitReply, int, error) {
	var rep submitReply
	code, blob, err := c.send(n, http.MethodPost, "/v1/jobs", req)
	if err != nil {
		return rep, 0, fmt.Errorf("submitting job: %w", err)
	}
	if code != http.StatusAccepted && code != http.StatusOK {
		return rep, code, fmt.Errorf("submitting job: status %d: %.200s", code, blob)
	}
	if err := json.Unmarshal(blob, &rep); err != nil {
		return rep, code, fmt.Errorf("submitting job: decoding reply: %w", err)
	}
	return rep, code, nil
}

// waitJob polls a job until it reaches a terminal state.
func (c *client) waitJob(n *node, id string) (service.View, error) {
	for {
		var v service.View
		if err := c.call(n, http.MethodGet, "/v1/jobs/"+id, nil, http.StatusOK, &v); err != nil {
			return v, err
		}
		if v.Status.Terminal() {
			return v, nil
		}
		time.Sleep(pollEvery)
	}
}

// waitTurn polls a session turn until it reaches a terminal state.
func (c *client) waitTurn(n *node, session, turn string) (service.TurnView, error) {
	for {
		var v service.TurnView
		if err := c.call(n, http.MethodGet, "/v1/sessions/"+session+"/turns/"+turn, nil, http.StatusOK, &v); err != nil {
			return v, err
		}
		if v.Status.Terminal() {
			return v, nil
		}
		time.Sleep(pollEvery)
	}
}

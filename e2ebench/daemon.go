package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"time"

	"chatvis/internal/cluster"
	"chatvis/internal/data"
	"chatvis/internal/eval"
	"chatvis/internal/llm"
	"chatvis/internal/obs"
	"chatvis/internal/par"
	"chatvis/internal/service"
)

// chatvisd's defaults, which every benchmark node runs with: one queue
// worker per CPU, a 256-slot backlog, one LLM attempt per stage, the
// LLM response cache and the WAL on, a 256 MiB dataset cache, compute
// workers following GOMAXPROCS, routing and quotas off.
const (
	queueCap       = 256
	llmRetries     = 1
	datasetCacheMB = 256
)

// traceCapacity retains every trace of a traced run: far above the
// request count any run sends, so the tracer never evicts (fold checks
// that it did not).
const traceCapacity = 1 << 20

// nodeConfig describes one in-process chatvisd.
type nodeConfig struct {
	id       string // cluster node ID ("" for a single node)
	dir      string // node-private root: data, job outputs, WAL
	storeDir string // artifact store, shared by a fleet
	size     eval.DataSize
	traced   bool
	peers    []cluster.Peer // fleet membership, this node included
	ln       net.Listener
}

// node is one chatvisd assembled from the public constructors the way
// cmd/chatvisd's buildDaemon wires them, serving its HTTP handler on a
// loopback listener.
type node struct {
	id       string
	url      string
	store    *service.Store
	queue    *service.Queue
	sessions *service.Sessions
	cache    *data.Cache
	tracer   *obs.Tracer // nil when untraced
	cluster  *cluster.Cluster
	wal      *cluster.WAL
	srv      *http.Server
	served   chan struct{} // closed when Serve returns
}

// startNode builds and serves one node.
func startNode(cfg nodeConfig) (*node, error) {
	par.SetWorkers(0)
	n := &node{id: cfg.id, cache: data.NewCache(datasetCacheMB << 20)}
	var err error
	if n.store, err = service.NewStore(cfg.storeDir); err != nil {
		return nil, err
	}
	if cfg.peers != nil {
		if n.cluster, err = cluster.New(cluster.Config{NodeID: cfg.id, Peers: cfg.peers}); err != nil {
			return nil, err
		}
	}
	if n.wal, err = cluster.OpenWAL(filepath.Join(cfg.dir, "wal")); err != nil {
		return nil, err
	}
	metrics := &llm.Metrics{}
	pipeline, factory := service.NewServingBackend(service.PipelineConfig{
		DataDir:      filepath.Join(cfg.dir, "data"),
		OutDir:       filepath.Join(cfg.dir, "out", "jobs"),
		DataSize:     cfg.size,
		Retries:      llmRetries,
		Metrics:      metrics,
		DatasetCache: n.cache,
	})
	qopts := service.QueueOptions{
		Workers:  runtime.NumCPU(),
		Capacity: queueCap,
		Pipeline: pipeline,
		Store:    n.store,
		WAL:      n.wal,
	}
	if n.cluster != nil {
		qopts.JobIDPrefix = "job-" + cfg.id
		qopts.RemoteLookup = service.ClusterLookup(n.cluster)
	}
	if n.queue, err = service.NewQueue(qopts); err != nil {
		return nil, err
	}
	n.sessions = service.NewSessions(n.store, factory).WithWAL(n.wal)
	if c := n.cluster; c != nil {
		n.sessions.WithOwnership(func(id string) bool {
			owner, ok := c.Owner(id)
			return ok && c.IsSelf(owner)
		})
	}
	name := cfg.id
	if name == "" {
		name = "chatvisd"
	}
	n.sessions.Restore()
	n.queue.ReplayWAL()
	n.sessions.ReplayWAL()
	// The daemon's text logger at its default level, into a sink: the
	// formatting cost stays, the output does not.
	server := service.NewServer(n.queue, n.store, metrics).
		WithDatasetCache(n.cache).
		WithSessions(n.sessions).
		WithLogger(obs.NewLogger(io.Discard, "info", "text")).
		WithWAL(n.wal)
	if cfg.traced {
		n.tracer = obs.NewTracer(name, traceCapacity)
		server.WithTracer(n.tracer)
	}
	if n.cluster != nil {
		server.WithCluster(n.cluster)
		n.cluster.Start()
	}
	n.url = "http://" + cfg.ln.Addr().String()
	n.srv = &http.Server{Handler: server.Handler()}
	n.served = make(chan struct{})
	go func() {
		defer close(n.served)
		if err := n.srv.Serve(cfg.ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			logf("node %s: serve: %v", name, err)
		}
	}()
	return n, nil
}

// drain stops intake and waits for every accepted job and turn to
// finish, so each span they open has ended.
func (n *node) drain() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	errHTTP := n.srv.Shutdown(ctx)
	<-n.served
	errQ := n.queue.Shutdown(ctx)
	errS := n.sessions.Shutdown(ctx)
	return errors.Join(errHTTP, errQ, errS)
}

// close releases the node's background resources after drain.
func (n *node) close() error {
	if n.cluster != nil {
		n.cluster.Stop()
	}
	return n.wal.Close()
}

// startNodes brings up a single node (n == 1) or an n-node fleet on
// loopback sharing one artifact store, as `make smoke-cluster` runs it.
func startNodes(root string, n int, size eval.DataSize, traced bool) ([]*node, error) {
	lns := make([]net.Listener, n)
	var peers []cluster.Peer
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeListeners(lns)
			return nil, err
		}
		lns[i] = ln
		if n > 1 {
			peers = append(peers, cluster.Peer{ID: fmt.Sprintf("n%d", i+1), Addr: ln.Addr().String()})
		}
	}
	nodes := make([]*node, 0, n)
	for i, ln := range lns {
		cfg := nodeConfig{
			dir:      filepath.Join(root, fmt.Sprintf("node%d", i+1)),
			storeDir: filepath.Join(root, "store"),
			size:     size,
			traced:   traced,
			peers:    peers,
			ln:       ln,
		}
		if peers != nil {
			cfg.id = peers[i].ID
		}
		nd, err := startNode(cfg)
		if err != nil {
			closeListeners(lns[i:])
			stopNodes(nodes)
			return nil, err
		}
		nodes = append(nodes, nd)
	}
	return nodes, nil
}

func closeListeners(lns []net.Listener) {
	for _, ln := range lns {
		if ln != nil {
			_ = ln.Close()
		}
	}
}

// stopNodes drains and closes every node.
func stopNodes(nodes []*node) error {
	var errs []error
	for _, n := range nodes {
		errs = append(errs, n.drain())
	}
	for _, n := range nodes {
		errs = append(errs, n.close())
	}
	return errors.Join(errs...)
}

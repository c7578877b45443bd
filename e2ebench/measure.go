package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"chatvis/internal/par"
)

// opResult is one measured operation.
type opResult struct {
	lat time.Duration
	// err is the first failure: the request failed or was refused, or an
	// output check did not pass.
	err        error
	storeHit   bool
	executed   bool  // the op ran a pipeline (not answered from the store)
	iterations int   // correction-loop iterations of the executed pipeline
	stages     int64 // pipeline stages the session engine recomputed (edit turns)
	png        []byte
	// key recomputes the request's coalescing key, for the direct timing
	// of service.Key / service.TurnKey.
	key func() string
	// post is an output check too costly for the timed phase; it runs
	// after it (nil: none).
	post func() error
}

// workload is one set-up workload, ready to drive.
type workload interface {
	// run drives the timed phase for d and returns what it measured.
	run(d time.Duration) phaseOps
	nodes() []*node
}

// phaseOps is what a workload's run returns.
type phaseOps struct {
	ops []opResult
	// lags are how late the open-loop generator sent each request.
	lags []time.Duration
	// heap samples live heap against completed turns (edit-session).
	heap []heapSample
}

type heapSample struct {
	turns int
	bytes float64
}

// heapSampler records live heap (as of the last GC cycle, so sampling
// forces nothing) after each completed turn.
type heapSampler struct {
	mu      sync.Mutex
	turns   int
	samples []heapSample
}

func (h *heapSampler) record() {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	h.mu.Lock()
	defer h.mu.Unlock()
	h.turns++
	if s[0].Value.Kind() == metrics.KindUint64 {
		h.samples = append(h.samples, heapSample{turns: h.turns, bytes: float64(s[0].Value.Uint64())})
	}
}

// phase is one measured timed phase.
type phase struct {
	phaseOps
	elapsed    time.Duration // start to last completion
	cpu        time.Duration // process user+system CPU over the phase
	allocBytes uint64
	heapLiveMB float64 // after a forced GC at the end of the phase
	par        par.Stats
	cacheHits  int64
	cacheMiss  int64
	cacheMB    float64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func allocatedBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func cacheStats(nodes []*node) (hits, misses int64, mb float64) {
	for _, n := range nodes {
		st := n.cache.Stats()
		hits += st.Hits
		misses += st.Misses
		mb += float64(st.Bytes) / (1 << 20)
	}
	return hits, misses, mb
}

// measure runs one timed phase of w and takes the process-level
// readings around it.
func measure(w workload, d time.Duration) phase {
	runtime.GC()
	parBefore := par.Snapshot()
	hitsBefore, missBefore, _ := cacheStats(w.nodes())
	allocBefore := allocatedBytes()
	cpuBefore := cpuTime()
	start := time.Now()

	ops := w.run(d)

	p := phase{phaseOps: ops, elapsed: time.Since(start)}
	p.cpu = cpuTime() - cpuBefore
	p.allocBytes = allocatedBytes() - allocBefore
	parAfter := par.Snapshot()
	p.par = par.Stats{
		Sweeps:         parAfter.Sweeps - parBefore.Sweeps,
		Chunks:         parAfter.Chunks - parBefore.Chunks,
		Busy:           parAfter.Busy - parBefore.Busy,
		ParallelSweeps: parAfter.ParallelSweeps - parBefore.ParallelSweeps,
	}
	if p.par.ParallelSweeps > 0 {
		// The snapshot keeps a running mean; recover the window's mean
		// from the two running sums.
		sum := parAfter.AvgImbalance*float64(parAfter.ParallelSweeps) -
			parBefore.AvgImbalance*float64(parBefore.ParallelSweeps)
		p.par.AvgImbalance = sum / float64(p.par.ParallelSweeps)
	}
	hits, miss, mb := cacheStats(w.nodes())
	p.cacheHits, p.cacheMiss, p.cacheMB = hits-hitsBefore, miss-missBefore, mb
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	p.heapLiveMB = float64(mem.HeapAlloc) / (1 << 20)
	return p
}

// closedLoop runs clients callers, each sending its next request only
// after the previous one completed, until d has passed; requests begun
// before then run to completion. op(c, i) performs request i on client
// c; i counts requests across all clients.
func closedLoop(clients int, d time.Duration, op func(c, i int) opResult) []opResult {
	var (
		seq     atomic.Int64
		mu      sync.Mutex
		results []opResult
		wg      sync.WaitGroup
	)
	deadline := time.Now().Add(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				r := op(c, int(seq.Add(1)-1))
				mu.Lock()
				results = append(results, r)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return results
}

// openLoop sends n requests on a fixed schedule, request i due at
// start + i/rate, from workers concurrent callers; a request whose
// caller is still busy goes out late, and that lateness is recorded.
// op(w, i, due) performs request i on worker w and times it from due.
func openLoop(workers int, rate float64, n int, op func(w, i int, due time.Time) opResult) ([]opResult, []time.Duration) {
	var (
		seq     atomic.Int64
		mu      sync.Mutex
		results = make([]opResult, 0, n)
		lags    = make([]time.Duration, 0, n)
		wg      sync.WaitGroup
	)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(seq.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				time.Sleep(time.Until(due))
				lag := time.Since(due)
				r := op(w, i, due)
				mu.Lock()
				results = append(results, r)
				lags = append(lags, lag)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	return results, lags
}

// --- statistics ---------------------------------------------------------------

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// slope is the least-squares slope of bytes over turns.
func slope(samples []heapSample) float64 {
	if len(samples) < 2 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for _, s := range samples {
		x := float64(s.turns)
		sx += x
		sy += s.bytes
		sxx += x * x
		sxy += x * s.bytes
	}
	n := float64(len(samples))
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}

// dataCacheHitShare is the dataset cache's hit share over a phase.
func (p phase) dataCacheHitShare() float64 {
	if p.cacheHits+p.cacheMiss == 0 {
		return 0
	}
	return float64(p.cacheHits) / float64(p.cacheHits+p.cacheMiss)
}

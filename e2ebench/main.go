// Command e2ebench is chatvis's end-to-end benchmark. It assembles
// chatvisd in-process from the public service and cluster constructors,
// with the daemon's defaults, serves it on loopback and drives it
// through its HTTP handlers with one of three seeded workloads:
//
//	cold-paper    closed loop, 2 clients: distinct Table II jobs at
//	              1920x1080 on paper-scale data (the cold path)
//	edit-session  closed loop, 2 warm sessions: seeded one-parameter
//	              edits at 1920x1080 (the interactive path)
//	fleet-repeat  open loop at a fixed rate: stored prompts entering a
//	              3-node fleet at a non-owner node (store hits); run by
//	              hand, not listed in BENCHMARK.json (see fleetRate)
//
// Usage (from the repository root; run.sh keeps the build under
// .bench_build/):
//
//	bash e2ebench/run.sh --workload cold-paper --seed 1 --seconds 45 --trace 0
//
// With --trace 0 it sets the workload up three times (reporting the
// median set-up time), measures one untraced timed phase and prints the
// end-to-end metrics. With --trace 1 it measures an untraced and a
// traced phase of half the time each and prints the per-layer metrics:
// span self times folded by layer, the benchmark's own direct timings
// of calls that have no span, and process counters. Every request's
// output is checked; a failed check counts against success_rate and
// makes "correct" false. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// setupRepeats is how many times an untraced run sets its workload up;
// it reports the median.
const setupRepeats = 3

var setups = map[string]func(root string, seed int64, log *traceLog) (workload, error){
	wlColdPaper:   setupCold,
	wlEditSession: setupEdit,
	wlFleetRepeat: setupFleet,
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "e2ebench: "+format+"\n", args...)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "cold-paper, edit-session or fleet-repeat")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same requests")
	seconds := flag.Int("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics from an untraced run; 1: per-layer metrics from a traced run")
	workdir := flag.String("workdir", filepath.Join(".bench_build", "work"), "working directory for datasets, stores and WALs")
	flag.Parse()

	setup, ok := setups[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	root := filepath.Join(*workdir, fmt.Sprintf("%s-%d-%d", *workload, *seed, os.Getpid()))
	rep, err := run(setup, root, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if rmErr := os.RemoveAll(root); rmErr != nil {
		err = errors.Join(err, rmErr)
	}
	if err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	blob, err := json.Marshal(rep)
	if err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	fmt.Println(string(blob))
}

func run(setup func(string, int64, *traceLog) (workload, error), root string, seed int64, d time.Duration, traced bool) (*report, error) {
	if traced {
		return runTraced(setup, root, seed, d)
	}
	// The timed phase runs on the first set-up, so leftovers of the
	// repeats cannot show in its memory readings; the repeats follow,
	// once the measured workload is released.
	p, failed, setupS, err := measureChecked(setup, filepath.Join(root, "setup0"), seed, d)
	if err != nil {
		return nil, err
	}
	rep := &report{
		Correct: failed == 0, Attempted: len(p.ops), Failed: failed,
		Metrics: endToEnd(p, failed),
	}
	times := []float64{setupS}
	for k := 1; k < setupRepeats; k++ {
		start := time.Now()
		w, err := setup(filepath.Join(root, fmt.Sprintf("setup%d", k)), seed, nil)
		if err != nil {
			return nil, err
		}
		times = append(times, time.Since(start).Seconds())
		if err := stopNodes(w.nodes()); err != nil {
			return nil, err
		}
	}
	rep.Metrics["setup_s"] = metric{median(times), "s"}
	return rep, nil
}

// measureChecked sets a workload up untraced, measures one timed phase,
// releases the workload and checks the phase's outputs. It returns the
// phase, its failed-op count and the set-up time in seconds.
func measureChecked(setup func(string, int64, *traceLog) (workload, error), root string, seed int64, d time.Duration) (phase, int, float64, error) {
	start := time.Now()
	w, err := setup(root, seed, nil)
	if err != nil {
		return phase{}, 0, 0, err
	}
	setupS := time.Since(start).Seconds()
	p := measure(w, d)
	if err := stopNodes(w.nodes()); err != nil {
		return phase{}, 0, 0, err
	}
	if err := checkLag(p); err != nil {
		return phase{}, 0, 0, err
	}
	failed := checkOps(p.ops)
	return p, failed, setupS, nil
}

// checkOps runs the deferred output checks and counts the ops that
// failed or did not pass a check, logging the first few reasons.
func checkOps(ops []opResult) (failed int) {
	for i := range ops {
		if ops[i].err == nil && ops[i].post != nil {
			ops[i].err = ops[i].post()
		}
		if ops[i].err != nil {
			if failed < 5 {
				logf("check failed: %v", ops[i].err)
			}
			failed++
		}
	}
	return failed
}

// lagBound is the open-loop generator's validity bound: a run whose
// requests went out this late (95th percentile) measured the generator,
// not the system, and is refused.
const lagBound = 5 * time.Millisecond

func checkLag(p phase) error {
	if len(p.lags) == 0 {
		return nil
	}
	if lag := lagP95(p); lag > ms(lagBound) {
		return fmt.Errorf("load generator ran late: p95 lag %.2f ms exceeds %.0f ms; the run is invalid", lag, ms(lagBound))
	}
	return nil
}

func lagP95(p phase) float64 {
	lags := make([]float64, len(p.lags))
	for i, l := range p.lags {
		lags[i] = ms(l)
	}
	return quantile(lags, 0.95)
}

// endToEnd computes the user-visible metrics of one untraced phase.
func endToEnd(p phase, failed int) map[string]metric {
	lats := make([]float64, len(p.ops))
	for i, op := range p.ops {
		lats[i] = ms(op.lat)
	}
	n := float64(len(p.ops))
	return map[string]metric{
		"latency_p50_ms":   {quantile(lats, 0.5), "ms"},
		"latency_p95_ms":   {quantile(lats, 0.95), "ms"},
		"throughput_ops_s": {(n - float64(failed)) / p.elapsed.Seconds(), "1/s"},
		"cpu_ms_per_op":    {ms(p.cpu) / n, "ms"},
		"alloc_mb_per_op":  {float64(p.allocBytes) / (1 << 20) / n, "MB"},
		"heap_live_mb":     {p.heapLiveMB, "MB"},
		"success_rate":     {(n - float64(failed)) / n, "share"},
	}
}

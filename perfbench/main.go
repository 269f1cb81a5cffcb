// Command perfbench is the repository's benchmark. It drives one workload
// through the public entry points of each layer (harness.PrepareCell,
// core.Run, oracle.Interface, the dnnlockd HTTP handler), checks every
// result, and prints one JSON object as the last line of standard output.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload attack-algebraic --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones, measured untraced.
// With --trace 1 the run measures the workload untraced for half the time,
// then repeats the same work traced (obs spans, CPU profile, runtime/metrics
// deltas) and prints the per-layer metrics. README.md lists every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is what every workload receives from the command line.
type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
	heap    *heapSampler
}

// report is what a workload hands back: the counts, the correctness
// verdict with its reasons, and the metric values by name (units come from
// the metric tables in metrics.go).
type report struct {
	attempted, failed int
	problems          []string
	values            map[string]float64
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(runConfig) (*report, error){
	"attack-algebraic": runAlgebraic,
	"attack-learning":  runLearning,
	"daemon-mixed":     runDaemon,
}

func main() {
	workload := flag.String("workload", "", "attack-algebraic, attack-learning or daemon-mixed")
	seed := flag.Int64("seed", 1, "workload seed: the same seed generates the same inputs")
	seconds := flag.Int("seconds", 30, "measurement length in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (attack-algebraic, attack-learning, daemon-mixed), --seconds >= 1 and --trace 0|1\n")
		os.Exit(2)
	}
	cfg := runConfig{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		heap:    startHeapSampler(),
	}
	// Runs are compared at whatever parallelism the host gives; record it.
	fmt.Printf("# workload=%s seed=%d seconds=%d trace=%d gomaxprocs=%d nproc=%d go=%s\n",
		*workload, *seed, *seconds, *trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())

	rep, err := run(cfg)
	cfg.heap.stop()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	table := endToEnd
	if cfg.trace {
		table = perLayer
	}
	out := result{
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metric, len(table)),
	}
	for _, m := range table {
		v, ok := rep.values[m.name]
		if !ok {
			rep.problem("metric %s was not measured", m.name)
		}
		out.Metrics[m.name] = metric{Value: v, Unit: m.unit}
		fmt.Printf("# %-40s %14.6g %s\n", m.name, v, m.unit)
	}
	if rep.attempted < 1 {
		rep.problem("no operation was attempted")
	}
	for _, p := range rep.problems {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", p)
	}
	out.Correct = len(rep.problems) == 0
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload of the recommender from this single process — offline
// train→batch, a reloading HTTP serve node, or a router over three shard
// nodes — measures it for a fixed time, checks every answer against a
// reference scorer of its own, and prints one JSON result line:
//
//	perfbench --workload offline --seed 1 --seconds 10 --trace 0
//
// With --trace 1 it prints the per-layer metrics instead, derived from
// spans it records around the calls into each layer, plus the tracing
// overhead on each end-to-end metric. "perfbench steady" re-runs
// workloads to show the spread behind each bound. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are one run's parameters.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	corrupt  string // diagnostic: corrupt one recorded answer before checking
	workDir  string // scratch space for model files, removed at exit
	nproc    int
}

// workload is one of the benchmark's input sets.
type workload struct {
	name string
	run  func(o *options) (*result, error)
}

var workloads = []workload{
	{"offline", runOffline},
	{"serve-node", runServeNode},
	{"router-fanout", runRouterFanout},
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		os.Exit(steady(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "prepare" {
		os.Exit(prepareMain(os.Args[2:]))
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: offline, serve-node or router-fanout")
	seed := fs.Uint64("seed", 1, "workload seed; every input is generated from it")
	seconds := fs.Float64("seconds", 10, "measured time per run")
	trace := fs.Int("trace", 0, "1 = traced run printing per-layer metrics")
	corrupt := fs.String("corrupt", "", "corrupt one recorded answer (swap, drop or foreign) so the check must fail")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	switch *corrupt {
	case "", "swap", "drop", "foreign":
	default:
		fmt.Fprintf(os.Stderr, "perfbench: bad -corrupt %q (want swap, drop or foreign)\n", *corrupt)
		return 2
	}
	base := filepath.Join(".bench_build", "perfbench")
	if err := os.MkdirAll(base, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: scratch dir: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(base, "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: scratch dir: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	o := &options{workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1,
		corrupt: *corrupt, workDir: dir, nproc: runtime.GOMAXPROCS(0)}
	start := time.Now()
	res, err := wl.run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d done in %.1fs\n", *name, *seed, time.Since(start).Seconds())
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// report prints a human-readable line before the result.
func (o *options) report(format string, args ...any) {
	fmt.Printf(format+"\n", args...)
}

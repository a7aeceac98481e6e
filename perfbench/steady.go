package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// steady runs each workload repeatedly, alternating the workload order
// between rounds and giving every run its own seed, and prints each
// end-to-end metric's median, quartiles and quartile spread — the spread
// every bound in BENCHMARK.json is set against.
func steady(args []string) int {
	fs := flag.NewFlagSet("perfbench steady", flag.ContinueOnError)
	runs := fs.Int("runs", 10, "runs per workload")
	seconds := fs.Float64("seconds", 25, "measured time per run")
	seed0 := fs.Uint64("seed", 1, "seed of the first round; round i uses seed+i")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench steady: %v\n", err)
		return 1
	}
	var wls []string
	for _, wl := range workloads {
		wls = append(wls, wl.name)
	}
	values := map[string]map[string][]float64{}
	units := map[string]string{}
	shares := map[string][]string{}
	for i := 0; i < *runs; i++ {
		order := append([]string(nil), wls...)
		if i%2 == 1 {
			for l, r := 0, len(order)-1; l < r; l, r = l+1, r-1 {
				order[l], order[r] = order[r], order[l]
			}
		}
		for _, wl := range order {
			seed := *seed0 + uint64(i)
			cmd := exec.Command(self, "--workload", wl, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(*seconds), "--trace", "0")
			var out bytes.Buffer
			cmd.Stdout, cmd.Stderr = &out, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench steady: %s seed %d: %v\n%s", wl, seed, err, out.String())
				return 1
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench steady: %s seed %d: %v\n", wl, seed, err)
				return 1
			}
			if values[wl] == nil {
				values[wl] = map[string][]float64{}
			}
			for name, m := range res.Metrics {
				values[wl][name] = append(values[wl][name], m.Value)
				units[name] = m.Unit
			}
			shares[wl] = append(shares[wl], fmt.Sprintf("%d/%d", res.Failed, res.Attempted))
			fmt.Printf("%-14s seed %-3d correct=%v failed/attempted=%d/%d\n", wl, seed, res.Correct, res.Failed, res.Attempted)
		}
	}
	fmt.Printf("\n%-14s %-20s %-6s %14s %14s %14s %8s\n", "workload", "metric", "unit", "q1", "median", "q3", "spread")
	for _, wl := range wls {
		var ms []string
		for name := range values[wl] {
			ms = append(ms, name)
		}
		sort.Strings(ms)
		for _, name := range ms {
			q1, q2, q3 := quartiles(values[wl][name])
			fmt.Printf("%-14s %-20s %-6s %14.6g %14.6g %14.6g %7.2f%%\n", wl, name, units[name], q1, q2, q3, 100*(q3-q1)/q2)
		}
		fmt.Printf("%-14s failed/attempted per run: %s\n", wl, strings.Join(shares[wl], " "))
	}
	return 0
}

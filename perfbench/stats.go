package main

import (
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs (0 <= q <= 1) by linear
// interpolation between closest ranks; xs need not be sorted.
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

// quartiles matches Python's statistics.quantiles(xs, n=4) with its
// default "exclusive" method, the spread the benchmark's bounds are
// judged by.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	at := func(i int) float64 {
		j := min(max(i*m/n, 1), ld-1)
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return at(1), at(2), at(3)
}

// setupReps is the number of timed set-ups before the timed phase, and
// again after it; setup_s is the median of all of them, so it samples
// the machine's speed at both ends of the run like the other figures.
const setupReps = 5

// timeSetups runs setup once untimed, so that the heap and the page
// cache are warm, then setupReps times, and returns the timed runs'
// seconds. Before each, untimed, release drops the previous set-up's
// state and, before each timed one, the heap is collected.
func timeSetups(release func(), setup func() error) ([]float64, error) {
	release()
	if err := setup(); err != nil {
		return nil, err
	}
	out := make([]float64, setupReps)
	for i := range out {
		release()
		runtime.GC()
		start := time.Now()
		if err := setup(); err != nil {
			return nil, err
		}
		out[i] = time.Since(start).Seconds()
	}
	return out, nil
}

func secs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// peakRSSMiB is the process's peak resident set so far.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// residentMiB is the process's resident set now, from /proc/self/statm.
func residentMiB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return math.NaN()
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return math.NaN()
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return math.NaN()
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// memSample is a runtime.MemStats reading taken at a phase boundary.
type memSample struct {
	totalAlloc uint64
	pauseNs    uint64
	numGC      uint32
}

func readMem() memSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSample{ms.TotalAlloc, ms.PauseTotalNs, ms.NumGC}
}

package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie strictly beyond a percentile
// before the benchmark reports it.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile of xs and the number of
// samples above that rank. ok is false when fewer than minBeyond
// samples lie beyond it.
func quantile(xs []float64, q float64) (v float64, beyond int, ok bool) {
	if len(xs) == 0 {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	beyond = len(s) - rank
	return s[rank-1], beyond, beyond >= minBeyond
}

// median is the plain middle value (mean of the two middles for even
// counts), used for per-layer summaries where no tail is claimed.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func minOf(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		m = math.Min(m, x)
	}
	return m
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// cpuTime is this process's user plus system CPU time. The kernel
// leaves out time the host gave to other guests and time spent waiting
// on timers, the network or the disk.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// harmonicMean of positive values; zero for an empty slice.
func harmonicMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	inv := 0.0
	for _, x := range xs {
		inv += 1 / x
	}
	return float64(len(xs)) / inv
}

// metric is one reported number: its unit and how many samples it
// summarizes (1 for a single measurement or an exact count).
type metric struct {
	Value float64
	Unit  string
	N     int
}

// report collects a run's metrics and its correctness tally.
type report struct {
	mu        sync.Mutex // attempt and fail run on several goroutines
	names     []string
	metrics   map[string]metric
	attempted int
	failed    int
	problems  []string
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name string, v float64, unit string, n int) {
	if _, ok := r.metrics[name]; !ok {
		r.names = append(r.names, name)
	}
	r.metrics[name] = metric{v, unit, n}
}

// setQuantile records the q-quantile of xs, or fails the run when the
// sample count cannot support that percentile.
func (r *report) setQuantile(name string, xs []float64, q float64) {
	v, beyond, ok := quantile(xs, q)
	if !ok {
		r.fail(fmt.Sprintf("%s: only %d of %d samples beyond p%g (need %d)",
			name, beyond, len(xs), q*100, minBeyond))
	}
	r.set(name, v, "s", len(xs))
}

// attempt counts n attempted operations.
func (r *report) attempt(n int) {
	r.mu.Lock()
	r.attempted += n
	r.mu.Unlock()
}

// fail records one failed or mismatching operation.
func (r *report) fail(why string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, why)
	}
}

func (r *report) String() string {
	var b strings.Builder
	for _, n := range r.names {
		m := r.metrics[n]
		fmt.Fprintf(&b, "%-34s %-22s %-11s n=%d\n", n,
			strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit, m.N)
	}
	return b.String()
}

// Command erbench is the repository's end-to-end benchmark. It runs one
// named workload against the simulator and the sweep service, checks
// that every output is correct, and prints its metrics; the last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set; with -trace 1 the
// benchmark also records spans around each layer's public calls and
// prints the per-layer set, including the tracing overhead.
//
// Workloads:
//
//	engine-direct   in-process sweep.Engine passes over all 16 corpus
//	                traces x 3 policies x 2 seeded register sizes with the
//	                invariant checker on (scalar Core path), plus 64 seeded
//	                machine configurations over listwalk and tomcatv
//	                (lockstep BatchCore path)
//	sweepd-durable  sweepd -state as a subprocess, one HTTP worker here,
//	                two closed-loop clients alternating cold and warm jobs,
//	                then SIGKILL and restart on the same state directory
//
// Build and run it through run.py from the repository root, which
// compiles this program and cmd/sweepd first:
//
//	python3 erbench/run.py --workload engine-direct --seed 1 --seconds 40 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
)

// workers is the simulation parallelism every workload uses, capped by
// the host's CPUs.
var workers = min(2, runtime.NumCPU())

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sweepd   string // path to the sweepd binary
	work     string // scratch directory for state and logs
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "engine-direct or sweepd-durable")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 40, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.sweepd, "sweepd", ".bench_build/sweepd", "sweepd binary (sweepd-durable)")
	flag.StringVar(&o.work, "work", ".bench_build/work", "scratch directory")
	probe := flag.Bool("setup-probe", false, "internal: time one first-touch trace generation and exit")
	flag.Parse()
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "erbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = traceFlag == 1
	runtime.GOMAXPROCS(workers)
	if *probe {
		if err := setupProbe(o); err != nil {
			fmt.Fprintln(os.Stderr, "erbench:", err)
			os.Exit(1)
		}
		return
	}

	rep, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "erbench:", err)
		os.Exit(1)
	}
	fmt.Print(rep)
	for _, p := range rep.problems {
		fmt.Println("FAILED:", p)
	}
	line, err := resultLine(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "erbench:", err)
		os.Exit(1)
	}
	fmt.Println(line)
}

func run(o options) (*report, error) {
	if o.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	switch o.workload {
	case "engine-direct":
		return runDirect(o)
	case "sweepd-durable":
		return runDurable(o)
	}
	return nil, fmt.Errorf("unknown workload %q (want engine-direct or sweepd-durable)", o.workload)
}

// endToEnd and perLayer are the metric names BENCHMARK.json declares;
// every run reports exactly one of the two sets.
var endToEnd = []string{
	"points_per_ref", "sim_minst_per_ref", "setup_s", "live_heap_mb", "sim_ipc_hm", "ok_frac",
}

var perLayer = []string{
	"workloads.trace_s", "workloads.trace_ns_per_inst", "workloads.trace_heap_mb",
	"pipeline.scalar_run_s", "pipeline.scalar_ns_per_inst",
	"pipeline.decode_s", "pipeline.batch_run_s", "pipeline.batch_ns_per_inst", "pipeline.batch_lanes_per_group",
	"pipeline.sim_cycles", "pipeline.nophysreg_stall_cpi",
	"release.early_frees_per_kinst", "release.reuse_hit_frac",
	"sweep.key_us", "sweep.cache_get_us", "sweep.cache_put_us", "sweep.hit_frac",
	"fed.lease_p50_s", "fed.lease_empty_frac", "fed.shard_service_p50_s",
	"fed.complete_p50_s", "fed.complete_p90_s",
	"wire.encode_us_per_point", "wire.decode_us_per_point", "wire.complete_bytes_per_point",
	"http.submit_p50_s", "http.poll_p50_s", "http.result_fetch_p50_s", "http.result_bytes_per_point",
	"durable.replay_s", "durable.wal_bytes_per_point", "durable.disk_bytes_per_point",
	"store.open_s", "store.bytes_per_point", "store.put_us", "store.sync_ms",
	"trace.overhead_frac", "trace.coverage", "failed_frac",
}

// resultLine renders the final JSON object with the declared metric
// set of the run's mode.
func resultLine(rep *report) (string, error) {
	names := endToEnd
	if _, traced := rep.metrics["trace.coverage"]; traced {
		names = perLayer
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{rep.failed == 0 && rep.attempted > 0, rep.attempted, rep.failed, map[string]val{}}
	var missing []string
	for _, n := range names {
		m, ok := rep.metrics[n]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			missing = append(missing, n)
			continue
		}
		out.Metrics[n] = val{m.Value, m.Unit}
	}
	if len(missing) > 0 {
		return "", fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	blob, err := json.Marshal(out)
	return string(blob), err
}

// liveHeapMB forces a collection and returns the live heap in MB,
// rounded to 0.1 MB so allocator bookkeeping does not blur a figure
// that is otherwise a pure function of the inputs.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return roundMB(float64(ms.HeapAlloc))
}

func roundMB(bytes float64) float64 { return math.Round(bytes/1e5) / 10 }

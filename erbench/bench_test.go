package main

import (
	"bufio"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// The self-test builds the benchmark and sweepd, runs every workload
// briefly twice untraced and once traced, and checks the output
// contract: every declared metric with its unit, deterministic metrics
// that repeat exactly, and traced spans that cover the measured time.

type declared struct {
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	Workloads []struct{ Name string }       `json:"workloads"`
}

type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
	text map[string]float64 // every metric line printed before the JSON
}

func build(t *testing.T) (bench, sweepd string) {
	t.Helper()
	dir := t.TempDir()
	bench, sweepd = filepath.Join(dir, "erbench"), filepath.Join(dir, "sweepd")
	for target, out := range map[string]string{".": bench, "earlyrelease/cmd/sweepd": sweepd} {
		cmd := exec.Command("go", "build", "-o", out, target)
		if blob, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", target, err, blob)
		}
	}
	return bench, sweepd
}

func runBench(t *testing.T, bench, sweepd, workload string, trace int) result {
	t.Helper()
	cmd := exec.Command(bench, "-workload", workload, "-seed", "3", "-seconds", "1",
		"-trace", strconv.Itoa(trace), "-sweepd", sweepd, "-work", t.TempDir())
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%s trace=%d: %v\n%s", workload, trace, err, out)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("%s: last line is not the result: %v", workload, err)
	}
	r.text = map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(string(out)))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 4 && strings.HasPrefix(f[3], "n=") {
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				r.text[f[0]] = v
			}
		}
	}
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Fatalf("%s trace=%d: correct=%v failed=%d attempted=%d\n%s",
			workload, trace, r.Correct, r.Failed, r.Attempted, out)
	}
	return r
}

func TestSelf(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl declared
	if err := json.Unmarshal(blob, &decl); err != nil {
		t.Fatal(err)
	}
	bench, sweepd := build(t)
	for _, w := range decl.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			a := runBench(t, bench, sweepd, w.Name, 0)
			b := runBench(t, bench, sweepd, w.Name, 0)
			tr := runBench(t, bench, sweepd, w.Name, 1)
			for _, set := range []struct {
				r     result
				names []struct{ Name, Unit string }
			}{{a, decl.EndToEnd}, {tr, decl.PerLayer}} {
				if len(set.r.Metrics) != len(set.names) {
					t.Errorf("%d metrics reported, %d declared", len(set.r.Metrics), len(set.names))
				}
				for _, m := range set.names {
					got, ok := set.r.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v, want unit %s", m.Name, got, m.Unit)
					}
				}
			}
			// Model metrics repeat in every run, traced or not; the live
			// heap of a direct workload repeats between untraced runs
			// (a traced run also holds its spans).
			for _, name := range []string{"sim_ipc_hm", "pipeline.sim_cycles",
				"pipeline.nophysreg_stall_cpi", "release.early_frees_per_kinst",
				"release.reuse_hit_frac", "live_heap_mb"} {
				va, oka := a.text[name]
				vb, okb := b.text[name]
				vt := tr.text[name]
				if name == "live_heap_mb" {
					if w.Name == "sweepd-durable" {
						continue
					}
					vt = va
				}
				if !oka || !okb || va != vb || va != vt {
					t.Errorf("%s does not repeat: %v, %v, traced %v", name, va, vb, vt)
				}
			}
			if cov := tr.Metrics["trace.coverage"].Value; cov < coverageMin || cov > 1+1e-9 {
				t.Errorf("traced spans cover %.4f of the measured time, want [%.2f, 1]", cov, coverageMin)
			}
		})
	}
}

func TestQuantileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, beyond, ok := quantile(xs, 0.9); v != 90 || beyond != 10 || !ok {
		t.Errorf("p90 of 1..100 = %v (%d beyond, ok=%v), want 90 with 10 beyond", v, beyond, ok)
	}
	if _, _, ok := quantile(xs[:99], 0.9); ok {
		t.Error("p90 of 99 samples accepted with fewer than ten beyond it")
	}
	if v, _, ok := quantile(xs[:20], 0.5); v != 10 || !ok {
		t.Errorf("median of 1..20 = %v ok=%v, want 10", v, ok)
	}
}

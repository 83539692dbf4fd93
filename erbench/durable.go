package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"earlyrelease/internal/pipeline"
	"earlyrelease/internal/sweep"
	"earlyrelease/internal/sweep/store"
	"earlyrelease/internal/workloads"
)

const (
	// durableScale keeps cold points small, so planning, journaling,
	// the store, the wire and HTTP are a large share of a cold job.
	durableScale = 4_000
	// pollEvery is the client's GET /sweep/{id} interval: well under
	// the job latencies it times.
	pollEvery = time.Millisecond
	// workerPoll is the idle lease poll of sweepd's embedded workers.
	workerPoll = 5 * time.Millisecond
	// minJobs per kind keeps ten samples beyond the p90.
	minJobs = 10 * minBeyond
	// restarts is how many times set-up re-opens the killed state.
	restarts = 9
	// traceWindow is how long a traced run keeps tracing on or off.
	traceWindow = 500 * time.Millisecond
	// readyTimeout bounds how long a restarted sweepd may take.
	readyTimeout = 60 * time.Second
)

var (
	// Traces that shrink with the scale: FP kernels such as tomcatv
	// keep a fixed length of up to 166k instructions.
	durableTraces = []string{"compress", "gcc", "hashjoin", "triad"}
	policies      = []string{"conv", "basic", "extended"}
)

// coldSpec names one cold grid: one trace under every policy at two
// register sizes, on a machine no other cold grid uses, so all of its
// points are new to the coordinator's cache.
type coldSpec struct {
	workload                  string
	memLat, l1d, l2, lsq, ros int
	regs                      [2]int
}

func (c coldSpec) grid() sweep.Grid {
	return sweep.Grid{Workloads: []string{c.workload}, Policies: policies,
		IntRegs: c.regs[:], Scale: durableScale,
		MemLats: []int{c.memLat}, L1DKBs: []int{c.l1d}, L2KBs: []int{c.l2},
		LSQSizes: []int{c.lsq}, ROSSizes: []int{c.ros}}
}

// coldSpecs lists every cold grid in a seeded order. Each axis level
// differs from the Table 2 baseline, which the warm grid uses, so no
// cold point shares a key with a warm one.
func coldSpecs(seed int64) []coldSpec {
	rng := rand.New(rand.NewSource(seed))
	regs := []int{40, 48, 56, 64, 80, 96, 112, 128}
	var out []coldSpec
	for _, w := range durableTraces {
		for _, m := range []int{25, 75, 100, 150, 200} {
			for _, l1 := range []int{8, 16, 64, 128} {
				for _, l2 := range []int{256, 512, 2048, 4096} {
					for _, lsq := range []int{16, 32, 48, 128} {
						for _, ros := range []int{32, 64, 256, 512} {
							out = append(out, coldSpec{w, m, l1, l2, lsq, ros, [2]int{}})
						}
					}
				}
			}
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	for i := range out {
		p := rng.Perm(len(regs))
		out[i].regs = [2]int{regs[p[0]], regs[p[1]]}
	}
	return out
}

// warmGrid is the resubmitted grid: 96 baseline-machine points that the
// set-up phase completes once. The seed moves each register size within
// a band of four.
func warmGrid(seed int64) sweep.Grid {
	rng := rand.New(rand.NewSource(seed))
	var regs []int
	for _, r := range []int{40, 48, 56, 64, 72, 80, 96, 128} {
		regs = append(regs, r+rng.Intn(4))
	}
	return sweep.Grid{Workloads: durableTraces, Policies: policies,
		IntRegs: regs, Scale: durableScale}
}

// sweepdProc is one sweepd coordinator subprocess.
type sweepdProc struct {
	cmd  *exec.Cmd
	base string
	done chan struct{}
	log  *os.File
}

func startSweepd(bin, state, logPath string) (*sweepdProc, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	f, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", addr, "-state", state, "-local-workers", "0",
		"-pprof", "-log-requests=false")
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", workers))
	// If this process dies, so does the coordinator.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stdout, cmd.Stderr = f, f
	if err := cmd.Start(); err != nil {
		f.Close()
		return nil, fmt.Errorf("start sweepd: %w", err)
	}
	p := &sweepdProc{cmd: cmd, base: "http://" + addr, done: make(chan struct{}), log: f}
	go func() {
		cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

// kill sends SIGKILL, waits for the process to end and returns the
// CPU time it used over its life.
func (p *sweepdProc) kill() time.Duration {
	p.cmd.Process.Kill()
	<-p.done
	p.log.Close()
	st := p.cmd.ProcessState
	return st.UserTime() + st.SystemTime()
}

// durableRun is the state of one sweepd-durable run.
type durableRun struct {
	o     options
	rep   *report
	hc    *http.Client
	sd    *sweepdProc
	dir   string
	state string
	specs []coldSpec
	warm0 sweep.Grid
	next  atomic.Int64

	tracing atomic.Bool
	base    time.Time

	mu        sync.Mutex
	cold      []float64 // untraced cold job latencies
	warm      []float64
	coldTr    []float64 // traced cold job latencies
	coldPts   int
	warmPts   int
	simInsts  uint64
	outcomes  map[string]wireOutcome // key -> outcome as sweepd returned it
	byJob     map[int][]wireOutcome  // cold job index -> outcomes
	warmRef   []wireOutcome
	hits, pts int

	// traced spans
	submitS, pollS, fetchS []float64
	fetchBytes, fetchPts   int
	timelines              map[int]*jobTimeline
	keyJob                 sync.Map // key -> cold job index
	src                    *timedSource
}

// wireOutcome is one outcome as GET /sweep/{id} returns it, with the
// result kept as compact JSON for byte comparison.
type wireOutcome struct {
	Point  sweep.Point     `json:"point"`
	Key    string          `json:"key"`
	Cached bool            `json:"cached"`
	Err    string          `json:"err"`
	Result json.RawMessage `json:"result"`
}

type jobView struct {
	State   string `json:"state"`
	Err     string `json:"err"`
	Results *struct {
		Outcomes []wireOutcome `json:"outcomes"`
	} `json:"results"`
}

// jobTimeline is a traced cold job's boundaries, in ns since base.
type jobTimeline struct {
	submitStart, submitEnd, doneSeen, fetchEnd time.Duration
	shards                                     []shardTimes
}

type shardTimes struct{ leased, completeStart, completeEnd time.Duration }

func runDurable(o options) (*report, error) {
	d := &durableRun{o: o, rep: newReport(), specs: coldSpecs(o.seed), warm0: warmGrid(o.seed),
		outcomes: map[string]wireOutcome{}, byJob: map[int][]wireOutcome{},
		timelines: map[int]*jobTimeline{}, base: time.Now()}
	d.hc = &http.Client{Timeout: 60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 8}}
	if _, err := os.Stat(o.sweepd); err != nil {
		return nil, fmt.Errorf("sweepd binary: %w", err)
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.work, "durable-")
	if err != nil {
		return nil, err
	}
	d.dir, d.state = dir, filepath.Join(dir, "state")
	defer os.RemoveAll(dir)
	defer func() {
		if d.sd != nil {
			d.sd.kill()
		}
	}()
	if err := d.run(); err != nil {
		return nil, err
	}
	return d.rep, nil
}

func (d *durableRun) start() error {
	sd, err := startSweepd(d.o.sweepd, d.state, filepath.Join(d.dir, "sweepd.log"))
	if err != nil {
		return err
	}
	d.sd = sd
	return nil
}

func (d *durableRun) kill() time.Duration {
	cpu := d.sd.kill()
	d.sd = nil
	return cpu
}

func (d *durableRun) run() error {
	// Worker-side first touch of every trace, before anything is timed.
	h0 := liveHeapMB()
	t0 := time.Now()
	insts := 0
	for _, name := range durableTraces {
		w, err := workloads.ByName(name)
		if err != nil {
			return err
		}
		tr, err := w.Trace(durableScale)
		if err != nil {
			return err
		}
		insts += tr.Len()
	}
	traceS := time.Since(t0).Seconds()
	traceHeap := liveHeapMB() - h0

	// CPU time is counted from here until the first coordinator is
	// killed, in this process and in the coordinator. The reference
	// kernel runs just before and just after, while nothing else does.
	refs := newRefKernel().samples(refEdge)
	cpu0 := cpuTime()
	if err := d.start(); err != nil {
		return err
	}
	if err := d.ready(""); err != nil {
		return err
	}
	d.src = &timedSource{c: sweep.NewClient(d.sd.base), d: d}
	stopWorker := d.startWorker()

	// Complete the warm grid once; its outcomes are the warm reference.
	warm, _, err := d.job(d.warm0, -1)
	if err != nil {
		stopWorker()
		return err
	}
	d.warmRef = warm
	d.record(warm)

	// Timed phase: two closed-loop clients alternating cold and warm.
	tStart := time.Now()
	var wg sync.WaitGroup
	errc := make(chan error, 2)
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := d.client(tStart); err != nil {
				errc <- err
			}
		}()
	}
	wg.Wait()
	wall := time.Since(tStart)
	close(errc)
	if err := <-errc; err != nil {
		stopWorker()
		return err
	}

	heap, err := d.heapMB()
	if err != nil {
		stopWorker()
		return err
	}
	d.rep.set("live_heap_mb", heap, "MB", 1)
	stopWorker()

	// Crash: a probe job half served from the cache and half queued,
	// then SIGKILL, then set-up is re-opening the killed state.
	probe, probeID, err := d.submitProbe()
	if err != nil {
		return err
	}
	cpu := d.kill() + cpuTime() - cpu0
	refs = append(refs, newRefKernel().samples(refEdge)...)
	disk := d.diskAtKill()
	copyDir := filepath.Join(d.dir, "killed")
	if d.o.trace {
		if err := copyTree(d.state, copyDir); err != nil {
			return err
		}
	}
	var setups []float64
	for i := 0; i < restarts; i++ {
		t := time.Now()
		if err := d.start(); err != nil {
			return err
		}
		if err := d.ready(probeID); err != nil {
			return err
		}
		setups = append(setups, time.Since(t).Seconds())
		if i < restarts-1 {
			d.kill()
		}
	}
	d.rep.set("setup_s", median(setups), "s", len(setups))
	fmt.Printf("setup samples (s): %v\n", setups)
	diskAfter := dirBytes(d.state)

	// Resume: a fresh worker finishes the recovered probe.
	stopWorker = d.startWorker()
	resumed, err := d.wait(probeID, nil, false)
	stopWorker()
	if err != nil {
		return err
	}
	d.checkProbe(probe, resumed)
	d.checkDirect()

	points := d.distinctPoints()
	d.rep.set("points_per_s", float64(d.coldPts+d.warmPts)/wall.Seconds(), "1/s",
		len(d.cold)+len(d.warm)+len(d.coldTr))
	d.rep.set("sim_mips", float64(d.simInsts)/float64(wall.Microseconds()), "inst/us", len(d.cold))
	// The CPU figures also count the warm grid's first completion,
	// which ran in the same span.
	cpuPts := d.coldPts + d.warmPts + len(d.warmRef)
	cpuInsts := d.simInsts
	for _, oc := range d.warmRef {
		if r := decodeResult(oc.Result); r != nil {
			cpuInsts += r.Committed
		}
	}
	perCPU(d.rep, float64(cpuPts)/cpu.Seconds(), float64(cpuInsts)/cpu.Seconds(), refs,
		len(d.cold)+len(d.warm)+len(d.coldTr), len(d.cold))
	if !d.o.trace {
		d.rep.setQuantile("cold_job_p50_s", d.cold, 0.5)
		d.rep.setQuantile("cold_job_p90_s", d.cold, 0.9)
		d.rep.setQuantile("warm_job_p50_s", d.warm, 0.5)
		d.rep.setQuantile("warm_job_p90_s", d.warm, 0.9)
	}
	d.rep.set("disk_bytes_per_point", float64(diskAfter)/float64(points), "B", points)
	var model []*pipeline.Result
	for _, oc := range d.warmRef {
		model = append(model, decodeResult(oc.Result))
	}
	modelMetrics(d.rep, model)
	d.rep.set("ok_frac", 1-float64(d.rep.failed)/float64(d.rep.attempted), "ratio", d.rep.attempted)

	if d.o.trace {
		return d.layers(traceS, insts, traceHeap, disk, diskAfter, points, copyDir)
	}
	return nil
}

// client runs one closed-loop client until the phase has lasted its
// seconds and both job kinds have enough samples.
func (d *durableRun) client(tStart time.Time) error {
	for {
		el := time.Since(tStart).Seconds()
		need := minJobs
		if d.o.trace {
			// A traced run's untraced windows only measure the overhead.
			need = 4
		}
		d.mu.Lock()
		enough := len(d.cold) >= need && len(d.warm) >= need && (!d.o.trace || len(d.coldTr) >= need)
		d.mu.Unlock()
		if el >= d.o.seconds && enough {
			return nil
		}
		if d.o.trace {
			// Alternate untraced and traced windows, so the overhead
			// compares jobs from the same stretch of the run.
			d.tracing.Store(int(el/traceWindow.Seconds())%2 == 1)
		}
		idx := int(d.next.Add(1) - 1)
		if idx >= len(d.specs) {
			return fmt.Errorf("ran out of distinct cold grids after %d jobs", idx)
		}
		spec := d.specs[idx]
		if d.o.trace {
			// Completions name only keys; this maps them back to jobs.
			for _, p := range spec.grid().Expand() {
				if k, err := p.Key(); err == nil {
					d.keyJob.Store(k, idx)
				}
			}
		}
		traced := d.tracing.Load()
		outs, lat, err := d.job(spec.grid(), idx)
		if err != nil {
			return err
		}
		var insts uint64
		for _, oc := range outs {
			if oc.Cached {
				d.rep.fail(fmt.Sprintf("%s: cold point served from the cache", oc.Point))
			}
			if r := decodeResult(oc.Result); r != nil {
				insts += r.Committed
			}
		}
		d.mu.Lock()
		if traced {
			d.coldTr = append(d.coldTr, lat.Seconds())
		} else {
			d.cold = append(d.cold, lat.Seconds())
		}
		d.simInsts += insts
		d.coldPts += len(outs)
		d.byJob[idx] = outs
		d.mu.Unlock()
		d.record(outs)

		outs, lat, err = d.job(d.warm0, -1)
		if err != nil {
			return err
		}
		d.mu.Lock()
		if !d.tracing.Load() {
			d.warm = append(d.warm, lat.Seconds())
		}
		d.warmPts += len(outs)
		d.pts += len(outs)
		for _, oc := range outs {
			if oc.Cached {
				d.hits++
			}
		}
		d.mu.Unlock()
		for i, oc := range outs {
			if !oc.Cached {
				d.rep.fail(fmt.Sprintf("%s: warm point was simulated again", oc.Point))
			} else if !bytes.Equal(oc.Result, d.warmRef[i].Result) {
				d.rep.fail(fmt.Sprintf("%s: warm result differs from its first completion", oc.Point))
			}
		}
	}
}

// record keeps each outcome by key for the direct-engine check and
// counts failures.
func (d *durableRun) record(outs []wireOutcome) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.rep.attempt(len(outs))
	for _, oc := range outs {
		d.pts++
		if oc.Cached {
			d.hits++
		}
		if oc.Err != "" || len(oc.Result) == 0 {
			d.rep.fail(fmt.Sprintf("%s: %s", oc.Point, oc.Err))
			continue
		}
		if prev, ok := d.outcomes[oc.Key]; ok && !bytes.Equal(prev.Result, oc.Result) {
			d.rep.fail(fmt.Sprintf("%s: result changed between jobs", oc.Point))
		}
		d.outcomes[oc.Key] = oc
	}
}

// job submits a grid and polls until it is done. idx names a cold job
// for the traced timeline (-1 for others).
func (d *durableRun) job(g sweep.Grid, idx int) ([]wireOutcome, time.Duration, error) {
	traced := d.tracing.Load()
	t0 := time.Now()
	id, err := d.submit(g)
	t1 := time.Now()
	if err != nil {
		return nil, 0, err
	}
	var tl *jobTimeline
	if traced {
		d.mu.Lock()
		d.submitS = append(d.submitS, t1.Sub(t0).Seconds())
		if idx >= 0 {
			tl = &jobTimeline{submitStart: t0.Sub(d.base), submitEnd: t1.Sub(d.base)}
			d.timelines[idx] = tl
		}
		d.mu.Unlock()
	}
	outs, err := d.wait(id, tl, traced)
	return outs, time.Since(t0), err
}

func (d *durableRun) submit(g sweep.Grid) (string, error) {
	blob, err := json.Marshal(g)
	if err != nil {
		return "", err
	}
	resp, err := d.hc.Post(d.sd.base+"/sweep", "application/json", bytes.NewReader(blob))
	if err != nil {
		return "", fmt.Errorf("submit: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", fmt.Errorf("submit: %w", err)
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, body)
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &out); err != nil || out.ID == "" {
		return "", fmt.Errorf("submit: bad reply %q", body)
	}
	return out.ID, nil
}

// wait polls GET /sweep/{id} until the job is done and returns its
// outcomes. traced says whether the poll and fetch calls are timed.
func (d *durableRun) wait(id string, tl *jobTimeline, traced bool) ([]wireOutcome, error) {
	for {
		t0 := time.Now()
		body, err := d.get("/sweep/" + id)
		t1 := time.Now()
		if err != nil {
			return nil, err
		}
		var v jobView
		if err := json.Unmarshal(body, &v); err != nil {
			return nil, fmt.Errorf("poll %s: %w", id, err)
		}
		if v.State != "done" {
			if traced {
				d.mu.Lock()
				d.pollS = append(d.pollS, t1.Sub(t0).Seconds())
				d.mu.Unlock()
			}
			time.Sleep(pollEvery)
			continue
		}
		if v.Err != "" || v.Results == nil {
			return nil, fmt.Errorf("job %s failed: %s", id, v.Err)
		}
		outs := v.Results.Outcomes
		for i := range outs {
			var c bytes.Buffer
			if len(outs[i].Result) > 0 {
				if err := json.Compact(&c, outs[i].Result); err != nil {
					return nil, err
				}
				outs[i].Result = c.Bytes()
			}
		}
		if traced {
			d.mu.Lock()
			d.fetchS = append(d.fetchS, t1.Sub(t0).Seconds())
			d.fetchBytes += len(body)
			d.fetchPts += len(outs)
			if tl != nil {
				tl.doneSeen, tl.fetchEnd = t0.Sub(d.base), t1.Sub(d.base)
			}
			d.mu.Unlock()
		}
		return outs, nil
	}
}

func (d *durableRun) get(path string) ([]byte, error) {
	resp, err := d.hc.Get(d.sd.base + path)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d: %s", path, resp.StatusCode, body)
	}
	return body, nil
}

// ready waits until sweepd answers /healthz and, when id is set, lists
// that sweep among its jobs.
func (d *durableRun) ready(id string) error {
	deadline := time.Now().Add(readyTimeout)
	for time.Now().Before(deadline) {
		select {
		case <-d.sd.done:
			return fmt.Errorf("sweepd exited during start-up; see %s", d.sd.log.Name())
		default:
		}
		if _, err := d.get("/healthz"); err == nil {
			if id == "" {
				return nil
			}
			body, err := d.get("/sweeps")
			if err == nil && bytes.Contains(body, []byte(strconv.Quote(id))) {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("sweepd not ready after %s", readyTimeout)
}

// startWorker runs one sweep.Worker in this process, pulling from the
// coordinator over HTTP; the returned func stops it and waits.
func (d *durableRun) startWorker() func() {
	d.src.c = sweep.NewClient(d.sd.base)
	w := &sweep.Worker{Source: d.src, Name: "erbench",
		Engine: &sweep.Engine{Parallel: workers}, Poll: workerPoll}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := w.Run(ctx); err != nil {
			d.rep.fail("worker: " + err.Error())
		}
	}()
	return func() {
		cancel()
		<-done
	}
}

// heapMB is the coordinator's live heap after a forced collection plus
// this process's, in MB.
func (d *durableRun) heapMB() (float64, error) {
	if _, err := d.get("/debug/pprof/heap?gc=1"); err != nil {
		return 0, err
	}
	body, err := d.get("/metrics")
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 2 && f[0] == "sweepd_heap_alloc_bytes" {
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return math.Round((roundMB(v)+liveHeapMB())*10) / 10, nil
		}
	}
	return 0, errors.New("sweepd_heap_alloc_bytes missing from /metrics")
}

// submitProbe submits the first cold grid again with one more register
// size while no worker runs, and waits until its six cached points are
// journaled and its three new ones are queued.
func (d *durableRun) submitProbe() ([]wireOutcome, string, error) {
	spec := d.specs[0]
	g := spec.grid()
	used := map[int]bool{spec.regs[0]: true, spec.regs[1]: true}
	for _, r := range []int{40, 48, 56, 64, 80, 96, 112, 128} {
		if !used[r] {
			g.IntRegs = append(g.IntRegs, r)
			break
		}
	}
	id, err := d.submit(g)
	if err != nil {
		return nil, "", err
	}
	fresh := len(g.Expand()) - len(d.byJob[0])
	deadline := time.Now().Add(readyTimeout)
	for time.Now().Before(deadline) {
		body, err := d.get("/federation")
		if err != nil {
			return nil, "", err
		}
		var st sweep.FederationStatus
		if err := json.Unmarshal(body, &st); err != nil {
			return nil, "", err
		}
		if st.PendingPoints == fresh {
			return d.byJob[0], id, nil
		}
		time.Sleep(time.Millisecond)
	}
	return nil, "", errors.New("probe job never queued its new points")
}

// checkProbe compares the recovered probe with the pre-kill outcomes
// of the same points.
func (d *durableRun) checkProbe(before, after []wireOutcome) {
	prev := map[string][]byte{}
	for _, oc := range before {
		prev[oc.Key] = oc.Result
	}
	fresh := 0
	for _, oc := range after {
		if r, ok := prev[oc.Key]; ok {
			d.rep.attempt(1)
			if !oc.Cached || !bytes.Equal(r, oc.Result) {
				d.rep.fail(fmt.Sprintf("%s: recovered outcome differs from the pre-kill one", oc.Point))
			}
		} else {
			fresh++
		}
	}
	if fresh != len(after)-len(before) {
		d.rep.fail(fmt.Sprintf("probe recovered %d new points, want %d", fresh, len(after)-len(before)))
	}
	d.record(after)
}

// checkDirect runs every distinct point sweepd returned on a fresh
// in-process Engine and requires byte-identical results.
func (d *durableRun) checkDirect() {
	keys := sortedKeys(d.outcomes)
	pts := make([]sweep.Point, len(keys))
	for i, k := range keys {
		pts[i] = d.outcomes[k].Point
	}
	res, err := (&sweep.Engine{Parallel: workers}).RunPoints(pts, nil)
	if err != nil {
		d.rep.fail("direct engine: " + err.Error())
		return
	}
	d.rep.attempt(len(pts))
	for i, oc := range res.Outcomes {
		if oc.Err != "" {
			d.rep.fail(fmt.Sprintf("%s: direct engine: %s", oc.Point, oc.Err))
			continue
		}
		blob, err := json.Marshal(oc.Result)
		if err != nil || !bytes.Equal(blob, d.outcomes[keys[i]].Result) {
			d.rep.fail(fmt.Sprintf("%s: sweepd result differs from the direct engine", oc.Point))
		}
	}
}

func (d *durableRun) distinctPoints() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.outcomes)
}

type diskUse struct{ wal, snap, store, total int64 }

func (d *durableRun) diskAtKill() diskUse {
	var u diskUse
	u.total = dirBytes(d.state)
	u.store = dirBytes(filepath.Join(d.state, "cache"))
	u.wal = fileBytes(filepath.Join(d.state, "wal.log"))
	u.snap = u.total - u.store - u.wal
	return u
}

func fileBytes(p string) int64 {
	fi, err := os.Stat(p)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err == nil && e.Type().IsRegular() {
			if fi, err := e.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return n
}

func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(p string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, p)
		target := filepath.Join(dst, rel)
		if e.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		blob, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(target, blob, 0o644)
	})
}

func decodeResult(raw json.RawMessage) *pipeline.Result {
	if len(raw) == 0 {
		return nil
	}
	var r pipeline.Result
	if json.Unmarshal(raw, &r) != nil {
		return nil
	}
	return &r
}

// timedSource is the worker's WorkSource: it forwards to the HTTP
// client and, while tracing, times each call and keeps the completion
// messages for the wire measurements.
type timedSource struct {
	c *sweep.Client
	d *durableRun

	mu        sync.Mutex
	lease     []float64
	empty     int
	service   []float64
	complete  []float64
	completes []*sweep.CompleteRequest
	leasedAt  time.Duration
}

func (s *timedSource) RegisterWorker(name string) (sweep.RegisterReply, error) {
	return s.c.RegisterWorker(name)
}

func (s *timedSource) HeartbeatWorker(id string) error { return s.c.HeartbeatWorker(id) }

func (s *timedSource) RenewLease(workerID, leaseID string) error {
	return s.c.RenewLease(workerID, leaseID)
}

func (s *timedSource) LeaseShard(workerID string) (*sweep.LeaseGrant, error) {
	t0 := time.Now()
	g, err := s.c.LeaseShard(workerID)
	t1 := time.Now()
	s.mu.Lock()
	// Stamped even while untraced: a shard leased in an untraced window
	// may complete in a traced one.
	s.leasedAt = t1.Sub(s.d.base)
	if s.d.tracing.Load() {
		s.lease = append(s.lease, t1.Sub(t0).Seconds())
		if g == nil && err == nil {
			s.empty++
		}
	}
	s.mu.Unlock()
	return g, err
}

func (s *timedSource) CompleteShard(req *sweep.CompleteRequest) error {
	if !s.d.tracing.Load() {
		return s.c.CompleteShard(req)
	}
	t0 := time.Now().Sub(s.d.base)
	err := s.c.CompleteShard(req)
	t1 := time.Now().Sub(s.d.base)
	s.mu.Lock()
	s.service = append(s.service, (t0 - s.leasedAt).Seconds())
	s.complete = append(s.complete, (t1 - t0).Seconds())
	s.completes = append(s.completes, req)
	leased := s.leasedAt
	s.mu.Unlock()
	if len(req.Outcomes) > 0 {
		if v, ok := s.d.keyJob.Load(req.Outcomes[0].Key); ok {
			s.d.mu.Lock()
			if tl := s.d.timelines[v.(int)]; tl != nil {
				tl.shards = append(tl.shards, shardTimes{leased, t0, t1})
			}
			s.d.mu.Unlock()
		}
	}
	return err
}

// layers derives the per-layer metrics of a traced sweepd-durable run.
func (d *durableRun) layers(traceS float64, insts int, traceHeap float64,
	disk diskUse, diskAfter int64, points int, copyDir string) error {
	rep := d.rep
	rep.set("workloads.trace_s", traceS, "s", 1)
	rep.set("workloads.trace_ns_per_inst", traceS*1e9/float64(insts), "ns/inst", 1)
	rep.set("workloads.trace_heap_mb", traceHeap, "MB", 1)
	// The worker's engine runs inside sweep.Worker, so its pipeline
	// time shows only as fed.shard_service_p50_s here.
	for _, n := range []string{"pipeline.scalar_run_s", "pipeline.decode_s", "pipeline.batch_run_s"} {
		rep.set(n, 0, "s", 0)
	}
	rep.set("pipeline.scalar_ns_per_inst", 0, "ns/inst", 0)
	rep.set("pipeline.batch_ns_per_inst", 0, "ns/inst", 0)
	rep.set("pipeline.batch_lanes_per_group", 0, "lanes", 0)

	// The coordinator keys and looks up every point of a warm job; time
	// the same calls here on the warm grid.
	pts := d.warm0.Expand()
	cache := sweep.NewCache()
	var keyNS, getNS, putNS time.Duration
	const rounds = 20
	for r := 0; r < rounds; r++ {
		for i, p := range pts {
			t := time.Now()
			k, err := p.Key()
			keyNS += time.Since(t)
			if err != nil {
				return err
			}
			if r == 0 {
				res := decodeResult(d.warmRef[i].Result)
				t = time.Now()
				cache.PutPoint(p, k, res)
				putNS += time.Since(t)
			}
			t = time.Now()
			cache.Get(k)
			getNS += time.Since(t)
		}
	}
	n := len(pts)
	rep.set("sweep.key_us", perCallUS(keyNS, n*rounds), "us", n*rounds)
	rep.set("sweep.cache_get_us", perCallUS(getNS, n*rounds), "us", n*rounds)
	rep.set("sweep.cache_put_us", perCallUS(putNS, n), "us", n)
	rep.set("sweep.hit_frac", float64(d.hits)/float64(d.pts), "ratio", d.pts)

	s := d.src
	s.mu.Lock()
	defer s.mu.Unlock()
	layerQuantile(rep, "fed.lease_p50_s", s.lease, 0.5)
	rep.set("fed.lease_empty_frac", float64(s.empty)/float64(max(1, len(s.lease))), "ratio", len(s.lease))
	layerQuantile(rep, "fed.shard_service_p50_s", s.service, 0.5)
	layerQuantile(rep, "fed.complete_p50_s", s.complete, 0.5)
	layerQuantile(rep, "fed.complete_p90_s", s.complete, 0.9)

	var encNS, decNS time.Duration
	var wireBytes, wirePts int
	for _, req := range s.completes {
		t := time.Now()
		blob, err := sweep.EncodeMessage(req)
		encNS += time.Since(t)
		if err != nil {
			return err
		}
		t = time.Now()
		if _, err := sweep.DecodeMessage(blob); err != nil {
			return err
		}
		decNS += time.Since(t)
		wireBytes += len(blob)
		wirePts += len(req.Outcomes)
	}
	rep.set("wire.encode_us_per_point", perCallUS(encNS, wirePts), "us", wirePts)
	rep.set("wire.decode_us_per_point", perCallUS(decNS, wirePts), "us", wirePts)
	rep.set("wire.complete_bytes_per_point", float64(wireBytes)/float64(max(1, wirePts)), "B", wirePts)

	layerQuantile(rep, "http.submit_p50_s", d.submitS, 0.5)
	layerQuantile(rep, "http.poll_p50_s", d.pollS, 0.5)
	layerQuantile(rep, "http.result_fetch_p50_s", d.fetchS, 0.5)
	rep.set("http.result_bytes_per_point", float64(d.fetchBytes)/float64(max(1, d.fetchPts)), "B", d.fetchPts)

	// Replay the killed state on a copy, as a restart does.
	t := time.Now()
	st, err := store.Open(filepath.Join(copyDir, "cache"), store.Options{CompactInterval: -1})
	if err != nil {
		return err
	}
	rep.set("store.open_s", time.Since(t).Seconds(), "s", 1)
	if err := st.Close(); err != nil {
		return err
	}
	t = time.Now()
	coord, err := sweep.OpenCoordinator(sweep.NewCache(), sweep.CoordConfig{StateDir: copyDir})
	if err != nil {
		return err
	}
	rep.set("durable.replay_s", time.Since(t).Seconds(), "s", 1)
	coord.Close()
	rep.set("durable.wal_bytes_per_point", float64(disk.wal+disk.snap)/float64(points), "B", points)
	rep.set("durable.disk_bytes_per_point", float64(diskAfter)/float64(points), "B", points)
	rep.set("store.bytes_per_point", float64(disk.store)/float64(points), "B", points)

	// Write this run's results into a fresh store.
	fresh, err := store.Open(filepath.Join(d.dir, "replay-store"), store.Options{CompactInterval: -1})
	if err != nil {
		return err
	}
	var putStore time.Duration
	for _, k := range sortedKeys(d.outcomes) {
		t := time.Now()
		if err := fresh.Put(k, d.outcomes[k].Result); err != nil {
			fresh.Close()
			return err
		}
		putStore += time.Since(t)
	}
	t = time.Now()
	if err := fresh.Sync(); err != nil {
		fresh.Close()
		return err
	}
	rep.set("store.sync_ms", time.Since(t).Seconds()*1e3, "ms", 1)
	rep.set("store.put_us", perCallUS(putStore, len(d.outcomes)), "us", len(d.outcomes))
	if err := fresh.Close(); err != nil {
		return err
	}

	rep.set("trace.overhead_frac", median(d.coldTr)/median(d.cold)-1, "ratio", len(d.coldTr))
	cov, self := d.coverage()
	rep.set("trace.coverage", cov, "ratio", len(d.timelines))
	rep.set("failed_frac", float64(rep.failed)/float64(rep.attempted), "ratio", rep.attempted)
	fmt.Printf("traced cold job time by span (coverage %.4f):\n", cov)
	for _, name := range sortedKeys(self) {
		fmt.Printf("  %-18s %10.4f s\n", name, self[name].Seconds())
	}
	return nil
}

// layerQuantile reports a per-layer percentile, or 0 when too few
// samples lie beyond it.
func layerQuantile(rep *report, name string, xs []float64, q float64) {
	v, _, ok := quantile(xs, q)
	if !ok {
		v = 0
	}
	rep.set(name, v, "s", len(xs))
}

// coverage splits each traced cold job into consecutive spans — submit,
// queue wait, shard service, completion, the client's poll lag and the
// result fetch — and returns the share of job time they cover, with
// the total time per span.
func (d *durableRun) coverage() (float64, map[string]time.Duration) {
	self := map[string]time.Duration{}
	var covered, wall time.Duration
	for _, tl := range d.timelines {
		if tl.fetchEnd == 0 || len(tl.shards) == 0 {
			continue
		}
		type iv struct {
			name       string
			start, end time.Duration
		}
		ivs := []iv{{"http.submit", tl.submitStart, tl.submitEnd},
			{"fed.queue_wait", tl.submitEnd, tl.shards[0].leased}}
		for _, sh := range tl.shards {
			ivs = append(ivs, iv{"fed.shard_service", sh.leased, sh.completeStart},
				iv{"fed.complete", sh.completeStart, sh.completeEnd})
		}
		last := tl.shards[len(tl.shards)-1].completeEnd
		ivs = append(ivs, iv{"http.poll_lag", last, tl.doneSeen},
			iv{"http.result_fetch", tl.doneSeen, tl.fetchEnd})
		// Union of the spans, clipped to the job's window.
		cursor := tl.submitStart
		for _, v := range ivs {
			s, e := max(v.start, cursor), min(v.end, tl.fetchEnd)
			if e > s {
				covered += e - s
				self[v.name] += e - s
				cursor = e
			}
		}
		wall += tl.fetchEnd - tl.submitStart
	}
	if wall == 0 {
		return 0, self
	}
	return float64(covered) / float64(wall), self
}

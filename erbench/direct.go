package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"slices"
	"sort"
	"sync"
	"time"

	"earlyrelease/internal/pipeline"
	"earlyrelease/internal/release"
	"earlyrelease/internal/sweep"
	"earlyrelease/internal/workloads"
)

// directGrid is the input of the in-process workload: the points one
// pass runs and the traces they read. The first checked points are
// the corpus checker points; the rest are the explorer points.
type directGrid struct {
	scale   int
	traces  []string
	points  []sweep.Point
	checked int
}

const (
	// directScale is the scale of every engine-direct point.
	directScale = 25_000
	// minColdPasses keeps at least ten cold passes beyond the median.
	minColdPasses = 2 * minBeyond
	// warmPerCold resubmissions of the grid follow each cold pass, so
	// the warm p90 has at least ten samples beyond it.
	warmPerCold = 20
	// setupProbes is how many fresh processes time first-touch trace
	// generation; setup_s is their median.
	setupProbes = 9
	// batchChecks is how many seeded batch lanes are re-run on the
	// scalar reference Core.
	batchChecks = 4
)

// corpusGrid is every corpus workload under the three policies at two
// seeded register sizes, one pressured and one relaxed, with the
// invariant checker on: cmd/sweep -check's grid. The seed moves each
// size within a band of eight, so the points change from seed to seed
// while the pass's cost stays comparable.
func corpusGrid(seed int64) directGrid {
	rng := rand.New(rand.NewSource(seed))
	small, large := 44+rng.Intn(8), 72+rng.Intn(8)
	g := sweep.Grid{Scale: directScale, Check: true, IntRegs: []int{small, large},
		Policies: []string{"conv", "basic", "extended"}}
	return directGrid{scale: directScale, traces: workloads.Names(), points: g.Expand()}
}

// explorerGrid is 32 machine configurations per trace in the shape
// internal/search emits: two full lockstep groups per trace. A fixed
// design pairs the axis levels so every level appears equally often;
// the seed then draws each numeric value from within its level's
// band, so the points differ from seed to seed while a pass's cost and
// grouping stay comparable. Cache sizes keep their exact levels, which
// must be powers of two.
func explorerGrid(seed int64) directGrid {
	design := rand.New(rand.NewSource(0x6578706c))
	rng := rand.New(rand.NewSource(seed))
	traces := []string{"listwalk", "tomcatv"}
	const per = 2 * sweep.DefaultBatchWidth
	levels := func(ls ...int) []int {
		out := make([]int, per)
		for i := range out {
			out[i] = ls[i%len(ls)]
		}
		design.Shuffle(per, func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	// band draws a value in [l, l+l/4]: within the level, never
	// reaching the next one.
	band := func(l int) int { return l + rng.Intn(l/4+1) }
	var pts []sweep.Point
	for _, tr := range traces {
		policy := levels(0, 1, 2)
		regs := levels(40, 48, 56, 64, 80, 96)
		ros := levels(32, 64, 128, 256)
		lsq := levels(16, 32, 64, 128)
		width := levels(4, 8, 16)
		l1d := levels(8, 16, 32, 64)
		l2 := levels(256, 512, 1024, 2048)
		mem := levels(24, 48, 100, 200)
		for i := 0; i < per; i++ {
			r, w := band(regs[i]), band(width[i])
			pts = append(pts, sweep.Point{
				Workload: tr, Scale: directScale,
				Policy:  []string{"conv", "basic", "extended"}[policy[i]],
				IntRegs: r, FPRegs: r,
				ROSSize: band(ros[i]), LSQSize: band(lsq[i]),
				FetchWidth: w, IssueWidth: w, CommitWidth: w,
				L1DKB: l1d[i], L2KB: l2[i], MemLat: band(mem[i]),
			})
		}
	}
	return directGrid{scale: directScale, traces: traces, points: pts}
}

// engineGrid is the engine-direct pass: the corpus checker grid, whose
// points always take the scalar Core, followed by the explorer grid,
// whose points run in lockstep BatchCore groups. Both halves share one
// scale, so listwalk and tomcatv are generated once.
func engineGrid(seed int64) directGrid {
	c, e := corpusGrid(seed), explorerGrid(seed)
	traces := c.traces
	for _, name := range e.traces {
		if !slices.Contains(traces, name) {
			traces = append(traces, name)
		}
	}
	return directGrid{scale: directScale, traces: traces,
		points: append(c.points, e.points...), checked: len(c.points)}
}

// genTraces generates every trace the grid reads and returns the
// dynamic instruction count.
func genTraces(g directGrid) (int, error) {
	insts := 0
	for _, name := range g.traces {
		w, err := workloads.ByName(name)
		if err != nil {
			return 0, err
		}
		tr, err := w.Trace(g.scale)
		if err != nil {
			return 0, err
		}
		insts += tr.Len()
	}
	return insts, nil
}

// setupProbe is the body of a -setup-probe child: one first-touch
// generation of the grid's traces in a fresh process, printed as JSON.
func setupProbe(o options) error {
	g := engineGrid(o.seed)
	t0 := time.Now()
	if _, err := genTraces(g); err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(time.Since(t0).Seconds())
}

// probeSetup times first-touch trace generation in setupProbes fresh
// child processes, so every sample pays what a new sweep process pays.
func probeSetup(o options) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < setupProbes; i++ {
		cmd := exec.Command(exe, "-setup-probe", "-workload", o.workload,
			"-seed", fmt.Sprint(o.seed))
		cmd.Stderr = os.Stderr
		blob, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("setup probe: %w", err)
		}
		var s float64
		if err := json.Unmarshal(blob, &s); err != nil {
			return nil, fmt.Errorf("setup probe output %q: %w", blob, err)
		}
		out = append(out, s)
	}
	return out, nil
}

// passStats is what the traced replica of one engine pass measured.
type passStats struct {
	lanes                       []*lane
	scalarNS, decodeNS, batchNS time.Duration
	scalarInsts, batchInsts     uint64
	batchLanes, batchGroups     int
	keyNS, getNS, putNS         time.Duration
	keys, gets, puts, hits      int
}

func runDirect(o options) (*report, error) {
	g := engineGrid(o.seed)
	rep := newReport()
	n := len(g.points)

	setups, err := probeSetup(o)
	if err != nil {
		return nil, err
	}
	rep.set("setup_s", median(setups), "s", len(setups))

	// First touch in this process, traced as the workloads layer.
	h0 := liveHeapMB()
	t0 := time.Now()
	insts, err := genTraces(g)
	if err != nil {
		return nil, err
	}
	traceS := time.Since(t0).Seconds()
	traceHeap := liveHeapMB() - h0

	var cold, warm, coldTraced []float64
	var coldCPU, warmCPU []float64 // CPU seconds of the untraced passes
	var ref []*pipeline.Result     // results of the first cold pass
	var refJSON [][]byte
	var traced []passStats

	checkCold := func(res *sweep.Results) {
		rep.attempt(n)
		for i, oc := range res.Outcomes {
			switch {
			case oc.Err != "":
				rep.fail(fmt.Sprintf("%s: %s", oc.Point, oc.Err))
				continue
			case oc.Cached:
				rep.fail(fmt.Sprintf("%s: served from a cold cache", oc.Point))
				continue
			}
			blob, err := json.Marshal(oc.Result)
			if err != nil {
				rep.fail(err.Error())
				continue
			}
			if ref == nil {
				continue
			}
			if !bytes.Equal(blob, refJSON[i]) {
				rep.fail(fmt.Sprintf("%s: result differs from the first pass", oc.Point))
			}
		}
		if ref == nil {
			for _, oc := range res.Outcomes {
				ref = append(ref, oc.Result)
				blob, _ := json.Marshal(oc.Result)
				refJSON = append(refJSON, blob)
			}
		}
	}

	checkWarm := func(res *sweep.Results) {
		rep.attempt(n)
		for j, oc := range res.Outcomes {
			if !oc.Cached || oc.Err != "" {
				rep.fail(fmt.Sprintf("%s: warm resubmission was not a cache hit", oc.Point))
			} else if blob, _ := json.Marshal(oc.Result); !bytes.Equal(blob, refJSON[j]) {
				rep.fail(fmt.Sprintf("%s: cached result differs", oc.Point))
			}
		}
	}

	// Each cycle is one cold pass on a fresh cache followed by
	// warmPerCold resubmissions of the grid to that now-warm cache. A
	// traced run alternates untraced and traced passes; its untraced
	// passes serve only to measure the tracing overhead.
	var warmTraced []passStats
	need := minColdPasses
	if o.trace {
		need = 4
	}
	kernel := newRefKernel()
	refs := kernel.samples(refEdge)
	start := time.Now()
	for i := 0; time.Since(start).Seconds() < o.seconds || len(cold)+len(coldTraced) < need; i++ {
		cache := sweep.NewCache()
		eng := &sweep.Engine{Parallel: workers, Cache: cache}
		if o.trace && i%2 == 1 {
			res, ps, d := tracedPass(g.points, cache)
			traced = append(traced, ps)
			coldTraced = append(coldTraced, d.Seconds())
			checkCold(res)
		} else {
			t, c := time.Now(), cpuTime()
			res, err := eng.RunPoints(g.points, nil)
			d, dc := time.Since(t), cpuTime()-c
			if err != nil {
				return nil, err
			}
			cold = append(cold, d.Seconds())
			coldCPU = append(coldCPU, dc.Seconds())
			refs = append(refs, kernel.cpu())
			checkCold(res)
		}
		for j := 0; j < warmPerCold; j++ {
			if o.trace && j%2 == 1 {
				res, ps, _ := tracedPass(g.points, cache)
				warmTraced = append(warmTraced, ps)
				checkWarm(res)
				continue
			}
			t, c := time.Now(), cpuTime()
			res, err := eng.RunPoints(g.points, nil)
			d, dc := time.Since(t), cpuTime()-c
			if err != nil {
				return nil, err
			}
			warm = append(warm, d.Seconds())
			warmCPU = append(warmCPU, dc.Seconds())
			checkWarm(res)
		}
	}

	refs = append(refs, kernel.samples(refEdge)...)
	checkScalar(o.seed, g, refJSON, rep)
	rep.set("live_heap_mb", liveHeapMB(), "MB", 1)

	// Throughput of a median cycle — one cold pass and warmPerCold warm
	// resubmissions — so a burst of contention from outside the
	// benchmark that hits a few passes does not move it. The declared
	// figures count it per CPU time of the reference kernel; the
	// per-CPU-second and wall-time ones are printed beside them.
	var passInsts uint64
	for _, r := range ref {
		passInsts += r.Committed
	}
	cycleCPU := median(coldCPU) + warmPerCold*median(warmCPU)
	perCPU(rep, float64(n*(1+warmPerCold))/cycleCPU, float64(passInsts)/cycleCPU,
		refs, len(coldCPU)+len(warmCPU), len(coldCPU))
	cycle := median(cold) + warmPerCold*median(warm)
	rep.set("points_per_s", float64(n*(1+warmPerCold))/cycle, "1/s", len(cold)+len(warm))
	rep.set("sim_mips", float64(passInsts)/cycle/1e6, "inst/us", len(cold))
	fmt.Printf("cold passes: %d, min %.4f s, median %.4f s, max %.4f s\n",
		len(cold), minOf(cold), median(cold), maxOf(cold))
	fmt.Printf("warm passes: %d, min %.6f s, median %.6f s, max %.6f s\n",
		len(warm), minOf(warm), median(warm), maxOf(warm))
	fmt.Printf("setup samples (s): %v\n", setups)
	if !o.trace {
		rep.setQuantile("cold_job_p50_s", cold, 0.5)
		rep.setQuantile("warm_job_p50_s", warm, 0.5)
		rep.setQuantile("warm_job_p90_s", warm, 0.9)
	}
	modelMetrics(rep, ref)
	rep.set("ok_frac", 1-float64(rep.failed)/float64(rep.attempted), "ratio", rep.attempted)

	if o.trace {
		directLayers(rep, traced, warmTraced, cold, coldTraced, traceS, insts, traceHeap)
	}
	return rep, nil
}

// tracedPass replays one Engine.RunPoints pass call by call, in the
// engine's order — serial key and cache lookup, misses grouped by
// trace into lockstep groups of DefaultBatchWidth (checker points and
// singletons stay scalar), the workers goroutines, then Save — and
// records a span around every layer call.
func tracedPass(points []sweep.Point, cache *sweep.Cache) (*sweep.Results, passStats, time.Duration) {
	base := time.Now()
	var ps passStats
	res := &sweep.Results{Outcomes: make([]*sweep.Outcome, len(points))}

	type miss struct {
		i   int
		pt  sweep.Point
		key string
	}
	serial := newLane(base)
	serial.open("engine.classify")
	var misses []miss
	for i, pt := range points {
		t := serial.now()
		key, err := pt.Key()
		t = serial.add("sweep.key", t)
		ps.keys++
		if err != nil {
			res.Outcomes[i] = &sweep.Outcome{Point: pt, Err: err.Error()}
			continue
		}
		r, ok := cache.Get(key)
		serial.add("sweep.cache_get", t)
		ps.gets++
		if ok {
			ps.hits++
			res.Outcomes[i] = &sweep.Outcome{Point: pt, Key: key, Cached: true, Result: r}
			continue
		}
		misses = append(misses, miss{i, pt, key})
	}

	// Group exactly as the engine does.
	var jobs [][]miss
	type gk struct {
		w string
		s int
	}
	groups := map[gk][]miss{}
	var order []gk
	for _, m := range misses {
		if m.pt.Check {
			jobs = append(jobs, []miss{m})
			continue
		}
		k := gk{m.pt.Workload, m.pt.Scale}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], m)
	}
	for _, k := range order {
		for g := groups[k]; len(g) > 0; {
			n := min(sweep.DefaultBatchWidth, len(g))
			jobs = append(jobs, g[:n])
			g = g[n:]
		}
	}
	serial.close()

	nw := min(workers, len(jobs))
	ch := make(chan []miss)
	var wg sync.WaitGroup
	var mu sync.Mutex
	lanes := make([]*lane, nw)
	per := make([]passStats, nw)
	fail := func(m miss, err error) {
		mu.Lock()
		res.Outcomes[m.i] = &sweep.Outcome{Point: m.pt, Key: m.key, Err: err.Error()}
		mu.Unlock()
	}
	for w := 0; w < nw; w++ {
		l := newLane(base)
		lanes[w] = l
		st := &per[w]
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.open("engine.worker")
			defer l.close()
			var core *pipeline.Core
			var batch *pipeline.BatchCore
			for j := range ch {
				t := l.now()
				wl, err := workloads.ByName(j[0].pt.Workload)
				if err != nil {
					fail(j[0], err)
					continue
				}
				tr, err := wl.Trace(j[0].pt.Scale)
				t = l.add("workloads.trace", t)
				if err != nil {
					fail(j[0], err)
					continue
				}
				cfgs := make([]pipeline.Config, len(j))
				for k, m := range j {
					if cfgs[k], err = m.pt.Config(); err != nil {
						break
					}
				}
				t = l.add("sweep.config", t)
				if err != nil {
					for _, m := range j {
						fail(m, err)
					}
					continue
				}
				var results []*pipeline.Result
				if len(j) == 1 {
					if core == nil {
						core, err = pipeline.New(cfgs[0], tr)
					} else {
						err = core.Reset(cfgs[0], tr)
					}
					t = l.add("pipeline.reset", t)
					if err != nil {
						fail(j[0], err)
						continue
					}
					r, err := core.Run()
					t1 := l.add("pipeline.scalar_run", t)
					st.scalarNS += t1 - t
					t = t1
					if err != nil {
						fail(j[0], err)
						continue
					}
					st.scalarInsts += r.Committed
					results = []*pipeline.Result{r}
				} else {
					if batch == nil {
						batch = pipeline.NewBatch(tr)
					} else {
						batch.SetTrace(tr)
					}
					t1 := l.add("pipeline.decode", t)
					st.decodeNS += t1 - t
					var errs []error
					results, errs = batch.Run(cfgs)
					t = l.add("pipeline.batch_run", t1)
					st.batchNS += t - t1
					st.batchLanes += len(j)
					st.batchGroups++
					for k, e := range errs {
						if e != nil {
							fail(j[k], e)
							results[k] = nil
						} else {
							st.batchInsts += results[k].Committed
						}
					}
				}
				for k, m := range j {
					if results[k] == nil {
						continue
					}
					cache.PutPoint(m.pt, m.key, results[k])
					t1 := l.add("sweep.cache_put", t)
					st.putNS += t1 - t
					st.puts++
					t = t1
					mu.Lock()
					res.Outcomes[m.i] = &sweep.Outcome{Point: m.pt, Key: m.key, Result: results[k]}
					mu.Unlock()
				}
			}
		}()
	}
	for _, j := range jobs {
		ch <- j
	}
	close(ch)
	wg.Wait()

	serial.open("engine.save")
	t := serial.now()
	if err := cache.Save(); err != nil {
		res.SaveErr = err.Error()
	}
	serial.add("sweep.cache_save", t)
	serial.close()
	wall := time.Since(base)

	for _, s := range serial.spans {
		switch s.name {
		case "sweep.key":
			ps.keyNS += s.dur()
		case "sweep.cache_get":
			ps.getNS += s.dur()
		}
	}
	for _, st := range per {
		ps.scalarNS += st.scalarNS
		ps.decodeNS += st.decodeNS
		ps.batchNS += st.batchNS
		ps.scalarInsts += st.scalarInsts
		ps.batchInsts += st.batchInsts
		ps.batchLanes += st.batchLanes
		ps.batchGroups += st.batchGroups
		ps.putNS += st.putNS
		ps.puts += st.puts
	}
	ps.lanes = append([]*lane{serial}, lanes...)
	for _, o := range res.Outcomes {
		if o.Cached {
			res.Stats.CacheHits++
		} else if o.Err == "" {
			res.Stats.Simulated++
		}
	}
	res.Stats.Points = len(points)
	return res, ps, wall
}

// checkScalar re-runs a seeded sample of batch lanes on the scalar
// Core, the reference implementation, and compares the results byte
// for byte.
func checkScalar(seed int64, g directGrid, refJSON [][]byte, rep *report) {
	rng := rand.New(rand.NewSource(seed ^ 0x5ca1a5))
	for _, i := range rng.Perm(len(g.points) - g.checked)[:batchChecks] {
		i += g.checked
		rep.attempt(1)
		pt := g.points[i]
		w, err := workloads.ByName(pt.Workload)
		if err != nil {
			rep.fail(err.Error())
			continue
		}
		tr, err := w.Trace(pt.Scale)
		if err != nil {
			rep.fail(err.Error())
			continue
		}
		cfg, err := pt.Config()
		if err != nil {
			rep.fail(err.Error())
			continue
		}
		core, err := pipeline.New(cfg, tr)
		if err != nil {
			rep.fail(err.Error())
			continue
		}
		r, err := core.Run()
		if err != nil {
			rep.fail(err.Error())
			continue
		}
		if blob, _ := json.Marshal(r); !bytes.Equal(blob, refJSON[i]) {
			rep.fail(fmt.Sprintf("%s: batch lane differs from scalar Core.Run", pt))
		}
	}
}

// modelMetrics reports the simulated (not host) figures of a result
// set. They are pure functions of the inputs and repeat exactly.
func modelMetrics(rep *report, rs []*pipeline.Result) {
	var ipcs []float64
	var cycles, committed, renamed, reuse, early uint64
	var noPhys int64
	for _, r := range rs {
		if r == nil {
			continue
		}
		ipcs = append(ipcs, r.IPC)
		cycles += uint64(r.Cycles)
		committed += r.Committed
		noPhys += r.Stalls.NoPhysReg
		renamed += r.Release.Renamed
		reuse += r.Release.ReuseHits
		early += r.Release.TotalFrees() - r.Release.Frees[release.FreeConventional]
	}
	rep.set("sim_ipc_hm", harmonicMean(ipcs), "IPC", len(ipcs))
	rep.set("pipeline.sim_cycles", float64(cycles), "cycles", len(ipcs))
	rep.set("pipeline.nophysreg_stall_cpi", float64(noPhys)/float64(committed), "cycles/inst", len(ipcs))
	rep.set("release.early_frees_per_kinst", 1000*float64(early)/float64(committed), "1/kinst", len(ipcs))
	rep.set("release.reuse_hit_frac", float64(reuse)/float64(renamed), "ratio", len(ipcs))
}

// directLayers turns the traced passes into the per-layer metrics.
func directLayers(rep *report, cold, warm []passStats, untraced, traced []float64,
	traceS float64, insts int, traceHeap float64) {
	rep.set("workloads.trace_s", traceS, "s", 1)
	rep.set("workloads.trace_ns_per_inst", traceS*1e9/float64(insts), "ns/inst", 1)
	rep.set("workloads.trace_heap_mb", traceHeap, "MB", 1)

	pick := func(f func(passStats) float64) float64 {
		xs := make([]float64, len(cold))
		for i, ps := range cold {
			xs[i] = f(ps)
		}
		return median(xs)
	}
	n := len(cold)
	rep.set("pipeline.scalar_run_s", pick(func(p passStats) float64 { return p.scalarNS.Seconds() }), "s", n)
	rep.set("pipeline.scalar_ns_per_inst", pick(func(p passStats) float64 {
		return perInst(p.scalarNS, p.scalarInsts)
	}), "ns/inst", n)
	rep.set("pipeline.decode_s", pick(func(p passStats) float64 { return p.decodeNS.Seconds() }), "s", n)
	rep.set("pipeline.batch_run_s", pick(func(p passStats) float64 { return p.batchNS.Seconds() }), "s", n)
	rep.set("pipeline.batch_ns_per_inst", pick(func(p passStats) float64 {
		return perInst(p.batchNS, p.batchInsts)
	}), "ns/inst", n)
	rep.set("pipeline.batch_lanes_per_group", pick(func(p passStats) float64 {
		if p.batchGroups == 0 {
			return 0
		}
		return float64(p.batchLanes) / float64(p.batchGroups)
	}), "lanes", n)

	var all passStats
	var lanes []*lane
	for _, ps := range append(append([]passStats(nil), cold...), warm...) {
		all.keyNS += ps.keyNS
		all.getNS += ps.getNS
		all.putNS += ps.putNS
		all.keys += ps.keys
		all.gets += ps.gets
		all.puts += ps.puts
		all.hits += ps.hits
		lanes = append(lanes, ps.lanes...)
	}
	rep.set("sweep.key_us", perCallUS(all.keyNS, all.keys), "us", all.keys)
	rep.set("sweep.cache_get_us", perCallUS(all.getNS, all.gets), "us", all.gets)
	rep.set("sweep.cache_put_us", perCallUS(all.putNS, all.puts), "us", all.puts)
	rep.set("sweep.hit_frac", float64(all.hits)/float64(all.gets), "ratio", all.gets)

	for _, name := range perLayer {
		if _, ok := rep.metrics[name]; !ok && bypassedDirect[name] != "" {
			rep.set(name, 0, bypassedDirect[name], 0)
		}
	}
	rep.set("trace.overhead_frac", median(traced)/median(untraced)-1, "ratio", len(traced))
	_, cov := selfTimes(lanes)
	rep.set("trace.coverage", cov, "ratio", len(lanes))
	rep.set("failed_frac", float64(rep.failed)/float64(rep.attempted), "ratio", rep.attempted)
	printSelfTimes(lanes)
}

// bypassedDirect lists the layers an in-process workload never calls;
// they report 0.
var bypassedDirect = map[string]string{
	"fed.lease_p50_s": "s", "fed.lease_empty_frac": "ratio", "fed.shard_service_p50_s": "s",
	"fed.complete_p50_s": "s", "fed.complete_p90_s": "s",
	"wire.encode_us_per_point": "us", "wire.decode_us_per_point": "us", "wire.complete_bytes_per_point": "B",
	"http.submit_p50_s": "s", "http.poll_p50_s": "s", "http.result_fetch_p50_s": "s", "http.result_bytes_per_point": "B",
	"durable.replay_s": "s", "durable.wal_bytes_per_point": "B", "durable.disk_bytes_per_point": "B",
	"store.open_s": "s", "store.bytes_per_point": "B", "store.put_us": "us", "store.sync_ms": "ms",
}

func perInst(d time.Duration, insts uint64) float64 {
	if insts == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(insts)
}

func perCallUS(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return d.Seconds() * 1e6 / float64(n)
}

// printSelfTimes prints each span name's share of the traced time.
func printSelfTimes(lanes []*lane) {
	self, cov := selfTimes(lanes)
	var total time.Duration
	for _, d := range self {
		total += d
	}
	fmt.Printf("self time by span (coverage %.4f):\n", cov)
	for _, name := range sortedKeys(self) {
		fmt.Printf("  %-22s %10.4f s %6.2f%%\n", name, self[name].Seconds(),
			100*float64(self[name])/float64(total))
	}
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

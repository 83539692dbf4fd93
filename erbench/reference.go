package main

import (
	"bytes"
	"compress/flate"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"
)

// The reference kernel is fixed work, from the Go standard library and
// this file only, that the benchmark times beside the program. The
// host's speed moves by up to 2x from minute to minute (see NOTES.md),
// and it moves the kernel and the program together, so the declared
// throughput is expressed per kernel run rather than per second. No
// change to the program can change the kernel.
//
// The kernel allocates nothing after its first run, so the program's
// heap size cannot change how often the collector interrupts it. It
// mixes branchy sorting, hashing into a map, LZ77 compression and a
// dependent pointer chase over 8 MB, and runs on as many goroutines as
// the benchmark has workers.

// refState is one goroutine's input and scratch space.
type refState struct {
	ints, sorted []int64
	text         []byte
	chase        []uint32
	m            map[int64]int
	out          bytes.Buffer
	fw           *flate.Writer
}

func newRefState(seed int64) *refState {
	rng := rand.New(rand.NewSource(seed))
	s := &refState{ints: make([]int64, 256<<10), text: make([]byte, 256<<10),
		chase: make([]uint32, 2<<20), m: make(map[int64]int, 64<<10)}
	s.sorted = make([]int64, len(s.ints))
	for i := range s.ints {
		s.ints[i] = rng.Int63()
	}
	for i := range s.text {
		s.text[i] = byte('a' + rng.Intn(12))
	}
	// One cycle through every slot (Sattolo), so the chase never
	// settles into a short loop that fits in cache.
	for i := range s.chase {
		s.chase[i] = uint32(i)
	}
	for i := len(s.chase) - 1; i > 0; i-- {
		j := rng.Intn(i)
		s.chase[i], s.chase[j] = s.chase[j], s.chase[i]
	}
	s.fw, _ = flate.NewWriter(&s.out, 6)
	return s
}

func (s *refState) run() int {
	copy(s.sorted, s.ints)
	slices.Sort(s.sorted)
	clear(s.m)
	for i, v := range s.sorted[:64<<10] {
		s.m[v>>7] = i
	}
	s.out.Reset()
	s.fw.Reset(&s.out)
	s.fw.Write(s.text)
	s.fw.Close()
	p := uint32(0)
	for i := 0; i < 200_000; i++ {
		p = s.chase[p]
	}
	return len(s.m) + s.out.Len() + int(p)
}

// refKernel is the kernel's state for every worker goroutine, about
// 30 MB. Callers let it go before they measure the live heap.
type refKernel struct {
	states []*refState
	sink   []int // one slot per goroutine, so the work is not dead
}

// newRefKernel builds the kernel's inputs and runs it once untimed, so
// its map and compressor have their memory before the first sample.
func newRefKernel() *refKernel {
	k := &refKernel{}
	for g := 0; g < workers; g++ {
		k.states = append(k.states, newRefState(int64(g)+1))
		k.sink = append(k.sink, k.states[g].run())
	}
	return k
}

// cpu runs the kernel once on every worker goroutine and returns the
// CPU seconds their threads spent on it. Each goroutine holds its
// thread, so a collector worker that the program's garbage started is
// not counted.
func (k *refKernel) cpu() float64 {
	used := make([]time.Duration, len(k.states))
	var wg sync.WaitGroup
	for g, s := range k.states {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			c := threadCPU()
			k.sink[g] = s.run()
			used[g] = threadCPU() - c
		}()
	}
	wg.Wait()
	var sum time.Duration
	for _, d := range used {
		sum += d
	}
	return sum.Seconds()
}

// threadCPU is the calling thread's user plus system CPU time.
func threadCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_THREAD, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// refEdge is how many kernel runs each workload times just before and
// just after its timed phase. engine-direct also times one after every
// untraced cold pass, so the kernel samples the host across the run.
const refEdge = 8

// samples runs the kernel n times and returns its CPU seconds.
func (k *refKernel) samples(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = k.cpu()
	}
	return out
}

// perCPU reports a workload's throughput, given per CPU-second, both
// as measured and per kernel run: the kernel's median CPU seconds
// times the per-second figure. nPts and nSim are the sample counts
// behind the points and the simulated instructions.
func perCPU(rep *report, pointsPerS, instsPerS float64, refs []float64, nPts, nSim int) {
	ref := median(refs)
	rep.set("ref_cpu_s", ref, "s", len(refs))
	rep.set("points_per_cpu_s", pointsPerS, "1/s", nPts)
	rep.set("sim_inst_per_cpu_us", instsPerS/1e6, "inst/us", nSim)
	rep.set("points_per_ref", pointsPerS*ref, "1/ref", nPts)
	rep.set("sim_minst_per_ref", instsPerS*ref/1e6, "Minst/ref", nSim)
}

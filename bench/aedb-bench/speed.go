package main

import (
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The machine this benchmark shares slows down in two ways, and the
// end-to-end time metrics correct for both.
//
// Steal: the hypervisor takes the machine's CPUs away for other tenants,
// at times for 10-20% of a rep. Linux counts that time in /proc/stat; a
// rep's wall time, and its evaluations per second, are taken net of the
// stolen time per CPU (stolenS). Over 17 reps of one ladder-d300 instance
// the stolen share explained 88% of the variance of the wall time.
//
// Speed: with nothing stolen the CPUs still run 5-10% faster or slower
// from one minute to the next, a pure arithmetic loop as much as a rep.
// The speed probe measures that between the reps of a run, and the time
// metrics are reported in reference seconds: divided by the run's
// factor, the median of the probes' times relative to refKernelS. One
// sample varies by about 6% from the next, so a run takes several (the
// scale's probes).
//
// The probe is the benchmark's own code and runs in the parent process
// while no rep is running, so nothing the program under test does can
// change it: a program that gets slower reads slower by the same share.

// refKernelS is each kernel's time on a machine of factor 1: its median
// over 100 probes on the 2-vCPU Intel Xeon VM of bench/README.md.
var refKernelS = [4]float64{0.0187, 0.0173, 0.0238, 0.0153}

// probeRounds is how often a probe runs each kernel; it keeps each
// kernel's fastest round, which no burst of steal has slowed.
const probeRounds = 3

// speedProbe holds the kernels' inputs, so a measurement allocates
// nothing but the map and sort kernels' own working sets.
type speedProbe struct {
	perms [][]uint32 // one pointer-chase cycle per goroutine
}

// newSpeedProbe builds the inputs and runs the kernels once, so the first
// measurement does not pay for page faults and cold caches.
func newSpeedProbe() *speedProbe {
	p := &speedProbe{}
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		p.perms = append(p.perms, cycle(1<<22, uint64(g+1)))
	}
	p.kernels()
	return p
}

// factors takes n samples of how much slower than the reference machine
// this one runs now, each the mean over the kernels of their time
// relative to refKernelS. One sample takes about 0.25 s.
func (p *speedProbe) factors(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		for k, t := range p.kernels() {
			out[i] += t / refKernelS[k] / float64(len(refKernelS))
		}
	}
	return out
}

// kernels times four small kernels, each run on every P at once as the
// workloads use them: a floating-point dependency chain, a pointer chase
// through 16 MB, map inserts and lookups of small heap objects, and a
// sort. Together they stand for the arithmetic, memory latency, allocation
// and branching the workloads spend their time on. Rounds interleave the
// kernels, and each kernel's time is its fastest round.
func (p *speedProbe) kernels() [4]float64 {
	var ts [4]float64
	var sink [4]uint64
	for round := 0; round < probeRounds; round++ {
		for k := range ts {
			var wg sync.WaitGroup
			sums := make([]uint64, len(p.perms))
			t0 := time.Now()
			for g := range p.perms {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					switch k {
					case 0:
						sums[g] = fpChain(5_000_000)
					case 1:
						sums[g] = chase(p.perms[g], 120_000)
					case 2:
						sums[g] = mapChurn(170_000, uint64(g+7))
					case 3:
						sums[g] = sortFloats(100_000, uint64(g+7))
					}
				}(g)
			}
			wg.Wait()
			if t := time.Since(t0).Seconds(); round == 0 || t < ts[k] {
				ts[k] = t
			}
			for _, s := range sums {
				sink[k] += s
			}
		}
	}
	probeSink = sink
	return ts
}

// stolenS is the CPU time the hypervisor has taken from this machine so
// far, per CPU, from the steal column of /proc/stat (in USER_HZ ticks,
// 100 per second on Linux); 0 where there is no such file. The difference
// over a span of wall time is the share of that span the machine did not
// run.
func stolenS() float64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	lines := strings.Split(string(raw), "\n")
	f := strings.Fields(lines[0])
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	cpus := 0
	for _, l := range lines[1:] {
		if len(l) > 3 && strings.HasPrefix(l, "cpu") && l[3] >= '0' && l[3] <= '9' {
			cpus++
		}
	}
	return ticks / 100 / float64(max(cpus, 1))
}

// probeSink keeps the kernels' results live.
var probeSink [4]uint64

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// cycle returns a random cyclic permutation of [0, n) (Sattolo).
func cycle(n int, seed uint64) []uint32 {
	p := make([]uint32, n)
	for i := range p {
		p[i] = uint32(i)
	}
	x := splitmix(seed)
	for i := n - 1; i > 0; i-- {
		x = xorshift(x)
		j := int(x % uint64(i))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

func fpChain(n int) uint64 {
	x, y := 1.0, 0.5
	for i := 0; i < n; i++ {
		x = x*1.0000001 + y
		y = y*0.9999999 - x*1e-9
	}
	return uint64(x + y)
}

func chase(p []uint32, n int) uint64 {
	i := uint32(0)
	for k := 0; k < n; k++ {
		i = p[i]
	}
	return uint64(i)
}

type churnNode struct {
	next *churnNode
	v    [4]float64
}

func mapChurn(n int, seed uint64) uint64 {
	m := map[uint64]*churnNode{}
	var s uint64
	for i := 0; i < n; i++ {
		seed = xorshift(seed)
		k := seed % 50_000
		if nd, ok := m[k]; ok {
			s += uint64(nd.v[0])
			nd.v[0]++
		} else {
			m[k] = &churnNode{v: [4]float64{float64(i)}}
		}
		if len(m) > 40_000 {
			m = map[uint64]*churnNode{}
		}
	}
	return s
}

func sortFloats(n int, seed uint64) uint64 {
	xs := make([]float64, n)
	for i := range xs {
		seed = xorshift(seed)
		xs[i] = float64(seed>>11) / (1 << 53)
	}
	sort.Float64s(xs)
	return uint64(xs[n/2] * 1e6)
}

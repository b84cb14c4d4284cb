package main

import (
	"math/rand"
	"runtime"
	"sort"
)

// refCalibMs is the CPU time of one calibration run on the reference
// machine, a 2-vCPU Intel Xeon VM with no neighbouring load. Costs are
// reported at that machine's speed.
const refCalibMs = 2.5

// calib is a fixed reference computation, run once per round between the
// questions. Neighbours on a shared host slow the CPU itself, for seconds to
// minutes at a time, and CPU time per answer rises with them; the same
// slowdown shows in the calibration's CPU time, measured in the same run.
// Each reported cost is scaled by refCalibMs over the run's median
// calibration time, so it follows the program's own cost more than the
// host's speed.
//
// The computation mixes what the simulator does most: sorting floats, hash
// lookups and dependent loads over a few megabytes. Its cost is the CPU time
// of its own thread. It allocates and writes no pointers, so no collector
// work is charged to it, and collector work running beside it on the same
// processor falls on other threads: the program's garbage collection never
// shows in the calibration.
type calib struct {
	src, buf []float64
	table    map[uint64]uint64
	next     []uint32
	sink     uint64    // the computation's result, kept so it is not optimised away
	times    []float64 // CPU time of every run, ms
}

func newCalib() *calib {
	r := rand.New(rand.NewSource(1))
	c := &calib{
		src:   make([]float64, 8192),
		buf:   make([]float64, 8192),
		table: make(map[uint64]uint64, 1<<16),
		next:  make([]uint32, 1<<18),
	}
	for i := range c.src {
		c.src[i] = r.Float64()
	}
	for i := 0; i < 1<<16; i++ {
		c.table[r.Uint64()%(1<<20)] = uint64(i)
	}
	for i, j := range r.Perm(len(c.next)) {
		c.next[i] = uint32(j)
	}
	return c
}

// run does the computation once and records its CPU time.
func (c *calib) run() {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0 := threadCPUNow()
	copy(c.buf, c.src)
	sort.Float64s(c.buf)
	s := uint64(c.buf[len(c.buf)/2] * 1e6)
	for i := uint64(0); i < 1<<14; i++ {
		s += c.table[(i*2654435761)%(1<<20)]
	}
	j := uint32(0)
	for i := 0; i < 1<<14; i++ {
		j = c.next[j]
	}
	c.sink += s + uint64(j)
	c.times = append(c.times, ms(threadCPUNow()-c0))
}

// scale is the factor that takes a CPU time measured in this run to the
// reference machine's speed.
func (c *calib) scale() float64 {
	return refCalibMs / quantile(c.times, 0.5)
}

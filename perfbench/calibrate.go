package main

import (
	"slices"
	"strconv"
	"strings"
	"time"
)

// The host the benchmark runs on is shared: other tenants' load makes
// the same work take up to twice as long from one few-second stretch to
// the next, and the stretches outlast single runs, so wall-clock figures
// of runs made minutes apart spread by more than any useful regression
// bound. The benchmark therefore times a fixed calibration kernel next
// to the program and reports the program's times at a fixed reference
// speed: each time is divided by the host's slowdown while it ran, the
// kernel's median time around it over kernelRefMS. The kernel is the
// benchmark's own code, so a change to the program moves the program's
// times and not the kernel's. README.md gives the measurements behind
// this.

// kernelRefMS is the kernel's time on the reference machine when it ran
// undisturbed: the 5th percentile of 1728 runs, rounded. It is the unit
// of the reference speed and must not change.
const kernelRefMS = 7.8

// kernelSink keeps the kernel's result alive.
var kernelSink int

// kernel is the calibration work, the kind the program does most:
// render 12000 lines shaped like its disassembly, index their tokens in
// a map, sort the keys. It allocates about as the program does, so it
// also feels the garbage collector's share of a slower host.
func kernel() {
	idx := make(map[string][]int32)
	for i := 0; i < 12000; i++ {
		line := "invoke-virtual {v" + strconv.Itoa(i%16) + "}, Lcom/app/C" + strconv.Itoa(i%997) +
			";->m" + strconv.Itoa(i%131) + "()V"
		for _, tok := range strings.Fields(line) {
			idx[tok] = append(idx[tok], int32(i))
		}
	}
	keys := make([]string, 0, len(idx))
	for k := range idx {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	kernelSink += len(keys)
}

// calibration holds the kernel times of a run, in ms, in the order they
// were taken.
type calibration struct{ ms []float64 }

// sample times n kernel runs.
func (c *calibration) sample(n int) {
	for i := 0; i < n; i++ {
		t0 := time.Now()
		kernel()
		c.ms = append(c.ms, ms(time.Since(t0)))
	}
}

// slowdown is the median kernel time of samples [lo, hi), clipped to
// the samples taken, over kernelRefMS.
func (c *calibration) slowdown(lo, hi int) float64 {
	lo, hi = max(lo, 0), min(hi, len(c.ms))
	return median(c.ms[lo:hi]) / kernelRefMS
}

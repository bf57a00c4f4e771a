package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"slices"
	"sort"
	"syscall"
	"time"
)

// snap is one reading of the process counters a run is measured by:
// wall clock, user+sys CPU, Go heap bytes allocated, and the GC's CPU
// time and cycle count.
type snap struct {
	wall     time.Time
	cpu      time.Duration
	alloc    uint64
	gcCPU    float64 // seconds
	gcCycles uint64
}

var metricNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

func take() snap {
	samples := make([]metrics.Sample, len(metricNames))
	for i, n := range metricNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return snap{
		wall:     time.Now(),
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:    samples[0].Value.Uint64(),
		gcCPU:    samples[1].Value.Float64(),
		gcCycles: samples[2].Value.Uint64(),
	}
}

// cost is the difference between two snaps.
type cost struct {
	wall     time.Duration
	cpu      time.Duration
	alloc    uint64
	gcCPU    float64
	gcCycles uint64
}

func since(a snap) cost { return a.to(take()) }

func (a snap) to(b snap) cost {
	return cost{
		wall:     b.wall.Sub(a.wall),
		cpu:      b.cpu - a.cpu,
		alloc:    b.alloc - a.alloc,
		gcCPU:    b.gcCPU - a.gcCPU,
		gcCycles: b.gcCycles - a.gcCycles,
	}
}

func (c cost) minus(d cost) cost {
	return cost{
		wall:     c.wall - d.wall,
		cpu:      c.cpu - d.cpu,
		alloc:    c.alloc - d.alloc,
		gcCPU:    c.gcCPU - d.gcCPU,
		gcCycles: c.gcCycles - d.gcCycles,
	}
}

func (c cost) plus(d cost) cost {
	return cost{
		wall:     c.wall + d.wall,
		cpu:      c.cpu + d.cpu,
		alloc:    c.alloc + d.alloc,
		gcCPU:    c.gcCPU + d.gcCPU,
		gcCycles: c.gcCycles + d.gcCycles,
	}
}

// timedPhase measures one round of a workload. Work the benchmark does
// for itself in the middle of it (output checks, switching to a fresh
// service instance) runs between pause and resume and is left out of
// every figure.
type timedPhase struct {
	start    snap
	excluded cost
	pausedAt snap
}

func startPhase() *timedPhase { return &timedPhase{start: take()} }

func (p *timedPhase) pause() { p.pausedAt = take() }

func (p *timedPhase) resume() { p.excluded = p.excluded.plus(since(p.pausedAt)) }

func (p *timedPhase) end() cost { return since(p.start).minus(p.excluded) }

// tally counts operations. An operation that returns an error is
// failed; one that completes with wrong output is failed too and also
// marks the run incorrect. Only operations that completed correctly
// contribute latency samples.
type tally struct {
	attempted int
	failed    int
	wrong     int
	notes     []string
}

// record files one finished operation and reports whether it completed
// correctly.
func (t *tally) record(opErr, checkErr error) bool {
	t.attempted++
	switch {
	case opErr != nil:
		t.failed++
		t.note("operation failed: %v", opErr)
	case checkErr != nil:
		t.failed++
		t.wrong++
		t.note("wrong output: %v", checkErr)
	default:
		return true
	}
	return false
}

// note keeps the first few diagnostics for standard error.
func (t *tally) note(format string, args ...any) {
	if len(t.notes) < 20 {
		t.notes = append(t.notes, fmt.Sprintf(format, args...))
	}
}

// moreRounds reports whether to start another round of a timed phase
// of length d, given the rounds' wall times so far: always before the
// first, and afterwards while the phase would end nearer d with one
// more round of the last one's length than without it. A run so makes
// round(d / round length) rounds, a number that stays the same over the
// run-to-run drift of round lengths.
func moreRounds(walls []time.Duration, d time.Duration) bool {
	if len(walls) == 0 {
		return true
	}
	var total time.Duration
	for _, w := range walls {
		total += w
	}
	return total+walls[len(walls)-1]/2 < d
}

// timing accumulates the end-to-end figures of a timed phase in
// segments — one operation on cold-corpus, one epoch on service-stream —
// each scaled to the reference speed by the host's slowdown while it
// ran (see calibrate.go).
type timing struct {
	lat  []float64 // each correct operation's latency, reference ms
	wall float64   // reference ms
	cpu  float64   // reference ms
	raw  cost      // host cost of all segments
	ops  int       // correct operations
	slow []float64 // each segment's slowdown
}

// add files a segment that cost c, ran at slowdown slow and completed
// the correct operations whose latencies are lats.
func (t *timing) add(c cost, slow float64, lats []time.Duration) {
	for _, l := range lats {
		t.lat = append(t.lat, ms(l)/slow)
	}
	t.wall += ms(c.wall) / slow
	t.cpu += ms(c.cpu) / slow
	t.raw = t.raw.plus(c)
	t.ops += len(lats)
	t.slow = append(t.slow, slow)
}

// figures computes the end-to-end metrics other than setup_s.
func (t *timing) figures() (map[string]metric, error) {
	p50, ok50 := percentile(t.lat, 0.5)
	p90, ok90 := percentile(t.lat, 0.9)
	if !ok50 || !ok90 {
		return nil, fmt.Errorf("%d correct operations are too few for a 90th percentile", len(t.lat))
	}
	n := float64(t.ops)
	return map[string]metric{
		"apps_per_s":       {n / (t.wall / 1000), "1/ref-s"},
		"latency_p50_ms":   {p50, "ref-ms"},
		"latency_p90_ms":   {p90, "ref-ms"},
		"cpu_ms_per_app":   {t.cpu / n, "ref-ms"},
		"alloc_mb_per_app": {mb(t.raw.alloc) / n, "MB"},
	}, nil
}

// summary describes the phase in host time, for standard error.
func (t *timing) summary() string {
	return fmt.Sprintf("%d operations in %.1f s of host time (%.3f/s), slowdown median %.3f [%.3f, %.3f]",
		t.ops, t.raw.wall.Seconds(), float64(t.ops)/t.raw.wall.Seconds(), median(t.slow), slices.Min(t.slow), slices.Max(t.slow))
}

// minTailSamples is the smallest sample count that leaves ten samples
// beyond the 90th percentile.
const minTailSamples = 100

// percentile returns the q-quantile (0 < q < 1) of the samples by
// linear interpolation between closest ranks. ok is false when fewer
// than ten samples would lie beyond it, so no tail is ever reported
// from too few samples; the median needs only one sample.
func percentile(samples []float64, q float64) (v float64, ok bool) {
	n := len(samples)
	if n == 0 {
		return 0, false
	}
	if beyond := n - int(math.Ceil(q*float64(n)-1e-9)); q > 0.5 && beyond < 10 {
		return 0, false
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo)), true
}

// median is percentile(samples, 0.5) for a non-empty sample set.
func median(samples []float64) float64 {
	v, _ := percentile(samples, 0.5)
	return v
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

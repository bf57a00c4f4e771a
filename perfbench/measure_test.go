package main

import (
	"errors"
	"math"
	"testing"
	"time"

	"backdroid/internal/android"
	"backdroid/internal/appgen"
	"backdroid/internal/core"
)

func TestPercentileNeedsTenSamplesBeyondP90(t *testing.T) {
	samples := make([]float64, 0, minTailSamples)
	for i := 1; i < minTailSamples; i++ {
		samples = append(samples, float64(i))
		if _, ok := percentile(samples, 0.9); ok {
			t.Fatalf("p90 reported from %d samples", len(samples))
		}
	}
	samples = append(samples, minTailSamples)
	v, ok := percentile(samples, 0.9)
	if !ok {
		t.Fatalf("p90 withheld from %d samples", len(samples))
	}
	if v < 90 || v > 91 {
		t.Fatalf("p90 of 1..100 = %v, want between 90 and 91", v)
	}
	if m, ok := percentile([]float64{3}, 0.5); !ok || m != 3 {
		t.Fatalf("median of one sample = %v, %v", m, ok)
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Fatal("median of no samples reported")
	}
}

func TestTallyCountsFailures(t *testing.T) {
	var tl tally
	got := []bool{
		tl.record(nil, nil),
		tl.record(errors.New("boom"), nil),
		tl.record(nil, errors.New("flipped")),
	}
	if tl.attempted != 3 || tl.failed != 2 || tl.wrong != 1 {
		t.Fatalf("attempted=%d failed=%d wrong=%d, want 3 2 1", tl.attempted, tl.failed, tl.wrong)
	}
	if !got[0] || got[1] || got[2] {
		t.Fatalf("record returned %v, want only the first operation correct", got)
	}
}

// Every time is divided by its segment's slowdown; allocation is not.
func TestTimingFigures(t *testing.T) {
	var tm timing
	lats := make([]time.Duration, minTailSamples)
	for i := range lats {
		lats[i] = time.Duration(i+1) * time.Millisecond
	}
	half := make([]time.Duration, minTailSamples)
	for i := range half {
		half[i] = 2 * lats[i]
	}
	// The same work twice: once at reference speed, once at half of it.
	tm.add(cost{wall: time.Second, cpu: 2 * time.Second, alloc: 1 << 20}, 1, lats)
	tm.add(cost{wall: 2 * time.Second, cpu: 4 * time.Second, alloc: 1 << 20}, 2, half)
	m, err := tm.figures()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"apps_per_s":       minTailSamples, // 200 operations in 2 reference seconds
		"latency_p50_ms":   50.5,           // 1..100 ms twice
		"cpu_ms_per_app":   2000.0 / minTailSamples,
		"alloc_mb_per_app": 1.0 / minTailSamples,
	}
	for name, v := range want {
		if got := m[name].Value; math.Abs(got-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}
}

// A run makes round(d / round length) rounds, and always one.
func TestMoreRounds(t *testing.T) {
	if !moreRounds(nil, 0) {
		t.Fatal("no first round")
	}
	walls := []time.Duration{10 * time.Second}
	if moreRounds(walls, 0) || moreRounds(walls, 14*time.Second) || !moreRounds(walls, 16*time.Second) {
		t.Fatal("second round not started exactly when it ends nearer d")
	}
}

// The slowdown is the median kernel time of a window of samples,
// clipped to the samples there are, over the reference time.
func TestCalibrationSlowdown(t *testing.T) {
	c := calibration{ms: []float64{kernelRefMS, 3 * kernelRefMS, 2 * kernelRefMS, 9 * kernelRefMS}}
	for _, tc := range []struct {
		lo, hi int
		want   float64
	}{{-4, 1, 1}, {0, 3, 2}, {1, 9, 3}, {3, 4, 9}} {
		if got := c.slowdown(tc.lo, tc.hi); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("slowdown(%d, %d) = %v, want %v", tc.lo, tc.hi, got, tc.want)
		}
	}
	c.ms = nil
	c.sample(3)
	if len(c.ms) != 3 || c.ms[0] <= 0 {
		t.Fatalf("sampled %v, want three kernel times", c.ms)
	}
}

// A failing operation in the timed loop is counted as failed, not
// dropped: every pass attempts every app, and the failing app gives no
// latency.
func TestEngineRunCountsFailingOperation(t *testing.T) {
	good, err := generate(appgen.Spec{
		Name: "com.bench.good", Seed: 3, SizeMB: 0.3,
		Sinks: []appgen.SinkSpec{{Flow: appgen.FlowDirect, Rule: android.RuleCryptoECB, Insecure: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	bad := genApp{name: "com.bench.bad", data: []byte("not a container"), truth: good.truth}
	w := &engineWorkload{
		apps:  []genApp{good, bad},
		opts:  core.DefaultOptions(),
		ref:   make([][]byte, 2),
		units: make([]int64, 2),
	}
	tl, tm, _, err := w.measure(0, false)
	if err != nil {
		t.Fatal(err)
	}
	if tl.attempted != 2 || tl.failed != 1 || tl.wrong != 0 {
		t.Fatalf("attempted=%d failed=%d wrong=%d, want 2 1 0", tl.attempted, tl.failed, tl.wrong)
	}
	if tm.ops != 1 || len(tm.lat) != 1 || len(tm.slow) != 2 {
		t.Fatalf("%d correct operations, %d latencies, %d segments: want 1 1 2", tm.ops, len(tm.lat), len(tm.slow))
	}
}

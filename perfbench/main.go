// Command perfbench is the repository's benchmark. It measures the
// BackDroid engine and its service from outside the program, by timing
// calls into the public functions of its packages, on two workloads
// generated from a seed:
//
//	cold-corpus     the 144-app paper corpus, analyzed cold
//	service-stream  a stream of cold, delta and settled jobs through the
//	                daemon's dispatcher on a fleet of nodes
//
// Every operation's output is checked against the generator's ground
// truth and the workload's properties. The last line of standard output
// is one JSON object: correct, attempted, failed and metrics — the
// end-to-end metrics, or with -trace 1 the per-layer ones. The
// end-to-end times are given at a reference speed of the host, measured
// with a calibration kernel (calibrate.go). See README.md.
//
// Usage:
//
//	perfbench -workload NAME -seed N -seconds S -trace 0|1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median, and the last set-up is the one measured.
const setupRepeats = 3

// calPerSetup is how many kernel runs sample the host's speed before and
// after each set-up; a set-up's slowdown is the median of the two
// samples around it.
const calPerSetup = 8

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workload is one workload after set-up.
type workload interface {
	// measure runs the timed phase, in rounds, and returns its
	// operations, its timing, and with tracing the per-layer figures.
	measure(d time.Duration, traced bool) (*tally, *timing, *layers, error)
	// verify runs the checks that apply to the run as a whole, after
	// the timed phase.
	verify() error
	// cleanup removes what set-up wrote to disk.
	cleanup()
}

var workloads = map[string]func(seed int64) (workload, error){
	"cold-corpus":    func(seed int64) (workload, error) { return setupCold(seed) },
	"service-stream": func(seed int64) (workload, error) { return setupStream(seed) },
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: cold-corpus or service-stream")
	seed := fs.Int64("seed", 1, "seed the workload's apps are generated from")
	seconds := fs.Int("seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return err
	}
	setup, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("want -seconds >= 1 and -trace 0 or 1")
	}

	var w workload
	var setups, hostSetups []float64
	var cal calibration
	for i := 0; i < setupRepeats; i++ {
		if w != nil {
			w.cleanup()
			w = nil
		}
		runtime.GC() // each set-up starts from a collected heap
		cal.sample(calPerSetup)
		t0 := time.Now()
		next, err := setup(*seed)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		host := time.Since(t0).Seconds()
		cal.sample(calPerSetup)
		hostSetups = append(hostSetups, host)
		setups = append(setups, host/cal.slowdown(len(cal.ms)-2*calPerSetup, len(cal.ms)))
		w = next
	}
	defer w.cleanup()
	fmt.Fprintf(stderr, "perfbench: %s seed %d set-up %.3f s at reference speed (median of %.3f), host seconds %.3f\n",
		*name, *seed, median(setups), setups, hostSetups)

	runtime.GC()
	t, tm, l, err := w.measure(time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		return err
	}
	correct := t.wrong == 0
	if err := w.verify(); err != nil {
		correct = false
		t.note("run check failed: %v", err)
	}
	for _, n := range t.notes {
		fmt.Fprintln(stderr, "perfbench:", n)
	}
	res := result{Correct: correct, Attempted: t.attempted, Failed: t.failed}
	if *trace == 1 {
		res.Metrics = l.metrics(t.attempted-t.failed, tm)
	} else {
		m, err := tm.figures()
		if err != nil {
			return err
		}
		m["setup_s"] = metric{median(setups), "s"}
		res.Metrics = m
	}
	fmt.Fprintf(stderr, "perfbench: %s\n", tm.summary())
	printSummary(stderr, res)
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", out)
	return err
}

func printSummary(w io.Writer, r result) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "perfbench: correct=%v attempted=%d failed=%d\n", r.Correct, r.Attempted, r.Failed)
	for _, n := range names {
		fmt.Fprintf(w, "  %-40s %14.4f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
}

package main

import (
	"bytes"
	"fmt"
	"time"

	"backdroid/internal/apk"
	"backdroid/internal/appgen"
	"backdroid/internal/cha"
	"backdroid/internal/core"
	"backdroid/internal/dexdump"
	"backdroid/internal/ir"
	"backdroid/internal/service"
)

// genApp is one generated app as the program receives it: container
// bytes, plus the ground truth only the benchmark sees.
type genApp struct {
	name  string
	data  []byte
	truth *appgen.GroundTruth
}

func generate(spec appgen.Spec) (genApp, error) {
	app, truth, err := appgen.Generate(spec)
	if err != nil {
		return genApp{}, fmt.Errorf("generating %s: %w", spec.Name, err)
	}
	data, err := app.Bytes()
	if err != nil {
		return genApp{}, fmt.Errorf("encoding %s: %w", spec.Name, err)
	}
	return genApp{name: spec.Name, data: data, truth: truth}, nil
}

func generateAll(specs []appgen.Spec) ([]genApp, error) {
	apps := make([]genApp, len(specs))
	for i, s := range specs {
		a, err := generate(s)
		if err != nil {
			return nil, err
		}
		apps[i] = a
	}
	return apps, nil
}

// mix derives the generator seed of one app from the benchmark seed.
// It is splitmix64, so neighbouring seeds give unrelated apps.
func mix(seed int64, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int64((z ^ z>>31) >> 1)
}

// corpusSpecs is the 144-app paper corpus: the shapes (sizes, sink
// counts, flow mix, the two subclassed sinks and the 121-sink outlier)
// are appgen's DefaultCorpus, and the seed re-seeds every app's own
// generator, so each seed gives other bytecode of the same shapes.
func corpusSpecs(seed int64) []appgen.Spec {
	specs := appgen.EvalCorpus(appgen.DefaultCorpus())
	for i := range specs {
		specs[i].Seed = mix(seed, i)
	}
	return specs
}

// analyze is one engine operation: container bytes to final report.
func analyze(a *genApp, opts core.Options) (*core.Report, error) {
	app, err := apk.ReadBytes(a.name, a.data)
	if err != nil {
		return nil, err
	}
	e, err := core.New(app, opts)
	if err != nil {
		return nil, err
	}
	return e.Analyze()
}

// engineWorkload is cold-corpus after set-up.
type engineWorkload struct {
	apps []genApp
	opts core.Options
	// ref holds each app's canonical report from its first timed run
	// and units its charged units.
	ref   [][]byte
	units []int64
}

func setupCold(seed int64) (*engineWorkload, error) {
	apps, err := generateAll(corpusSpecs(seed))
	if err != nil {
		return nil, err
	}
	return &engineWorkload{
		apps:  apps,
		opts:  core.DefaultOptions(),
		ref:   make([][]byte, len(apps)),
		units: make([]int64, len(apps)),
	}, nil
}

// check applies cold-corpus's output checks to app i's report: the
// ground-truth oracle, and charged units and canonical report equal to
// the app's earlier runs.
func (w *engineWorkload) check(i int, r *core.Report) error {
	a := &w.apps[i]
	if _, err := checkVerdicts(r, a.truth, w.opts.ResolveSinkSubclasses); err != nil {
		return err
	}
	if u := r.Stats.WorkUnits; w.units[i] == 0 {
		w.units[i] = u
	} else if u != w.units[i] {
		return fmt.Errorf("%s: charged %d units, an earlier pass charged %d", a.name, u, w.units[i])
	}
	if enc := service.EncodeReport(r); w.ref[i] == nil {
		w.ref[i] = enc
	} else if !bytes.Equal(enc, w.ref[i]) {
		return fmt.Errorf("%s: report differs from the app's first one", a.name)
	}
	return nil
}

// verifyStride picks the apps verify analyzes again.
const verifyStride = 12

// verify re-analyzes every verifyStride-th app after the timed phase, so
// that charged units and reports are compared from pass to pass even
// when the timed phase made a single pass (a traced run, or a slow one).
func (w *engineWorkload) verify() error {
	for i := 0; i < len(w.apps); i += verifyStride {
		r, err := analyze(&w.apps[i], w.opts)
		if err != nil {
			return err
		}
		if err := w.check(i, r); err != nil {
			return err
		}
	}
	return nil
}

func (w *engineWorkload) cleanup() {}

// calWindow is how many kernel samples on each side of an operation
// give its slowdown. The host's speed changes within seconds, so the
// window is short: five samples, about 0.7 s of operations.
const calWindow = 2

// warmupStride picks the apps analyzed, untimed, before the timed phase,
// so that the heap and the runtime have grown to their working size.
const warmupStride = 12

// measure runs whole passes over the apps, in order and one app in
// flight; each pass is a round. One kernel run before each operation
// samples the host's speed; an operation's slowdown is the median of
// the samples within calWindow operations of it.
func (w *engineWorkload) measure(d time.Duration, traced bool) (*tally, *timing, *layers, error) {
	t := &tally{}
	var l *layers
	if traced {
		l = newLayers()
	}
	type op struct {
		c   cost
		lat time.Duration
		ok  bool
	}
	for k := 0; k < len(w.apps); k += warmupStride {
		_, _ = analyze(&w.apps[k], w.opts) // timed operations check every output
	}
	var ops []op
	var cal calibration
	var walls []time.Duration
	for moreRounds(walls, d) {
		var wall time.Duration
		for k := range w.apps {
			cal.sample(1)
			s := take()
			var r *core.Report
			var err error
			var lat time.Duration
			if traced {
				r, lat, err = w.tracedAnalyze(k, l)
			} else {
				r, err = analyze(&w.apps[k], w.opts)
			}
			c := since(s)
			if !traced {
				lat = c.wall
			}
			var checkErr error
			if err == nil {
				checkErr = w.check(k, r)
			}
			ops = append(ops, op{c: c, lat: lat, ok: t.record(err, checkErr)})
			wall += c.wall
		}
		walls = append(walls, wall)
	}
	tm := &timing{}
	for i, o := range ops {
		var lats []time.Duration
		if o.ok {
			lats = []time.Duration{o.lat}
		}
		tm.add(o.c, cal.slowdown(i-calWindow, i+calWindow+1), lats)
	}
	return t, tm, l, nil
}

// tracedAnalyze runs one operation with each public layer call timed on
// its own. The stand-alone calls (merge, disassembly, index build,
// bundle encode and decode, IR program, class hierarchy) repeat work
// that core.New and Analyze do inside, or that a warm start does; they
// are probes, so the operation's own wall time, returned as lat, counts
// only ReadBytes, core.New and Analyze.
// Analyze is split at the engine's PhaseSpan callbacks into locate-sinks,
// backslice and constprop.
func (w *engineWorkload) tracedAnalyze(i int, l *layers) (*core.Report, time.Duration, error) {
	a := &w.apps[i]
	s := take()
	app, err := apk.ReadBytes(a.name, a.data)
	read := since(s)
	if err != nil {
		return nil, 0, err
	}
	l.add("apk.read_ms_per_app", ms(read.wall))
	l.add("apk.read_alloc_mb_per_app", mb(read.alloc))

	s = take()
	merged, err := app.MergedDex()
	l.add("dex.merge_ms_per_app", ms(since(s).wall))
	if err != nil {
		return nil, 0, err
	}
	s = take()
	text := dexdump.Disassemble(merged)
	c := since(s)
	l.add("dexdump.disassemble_ms_per_app", ms(c.wall))
	l.add("dexdump.disassemble_alloc_mb_per_app", mb(c.alloc))
	l.add("dexdump.lines_per_app", float64(text.LineCount()))
	s = take()
	idx := dexdump.BuildIndex(text)
	c = since(s)
	l.add("dexdump.index_build_ms_per_app", ms(c.wall))
	l.add("dexdump.index_alloc_mb_per_app", mb(c.alloc))
	l.add("dexdump.postings_per_app", float64(idx.Postings()))
	// The bundle a bundle store would keep for the app, and the decode
	// a warm start of it would begin with.
	fp := dexdump.AppFingerprint(app.Dexes)
	bundle, err := dexdump.EncodeBundle(text, idx, fp, nil)
	if err != nil {
		return nil, 0, err
	}
	l.add("dexdump.bundle_kb_per_app", float64(len(bundle))/1024)
	s = take()
	_, err = dexdump.DecodeBundleDump(bundle, fp)
	l.add("dexdump.bundle_decode_ms_per_app", ms(since(s).wall))
	if err != nil {
		return nil, 0, err
	}
	s = take()
	_ = ir.NewProgram(merged)
	l.add("ir.program_ms_per_app", ms(since(s).wall))
	s = take()
	_ = cha.New(merged)
	l.add("cha.build_ms_per_app", ms(since(s).wall))

	opts := w.opts
	var split phaseClock
	opts.PhaseSpan = split.span
	s = take()
	e, err := core.New(app, opts)
	newCost := since(s)
	if err != nil {
		return nil, 0, err
	}
	l.add("core.new_ms_per_app", ms(newCost.wall))
	pre := e.Meter().Units()

	s = take()
	split.start(s.wall)
	r, err := e.Analyze()
	an := since(s)
	if err != nil {
		return nil, 0, err
	}
	split.on = false
	l.add("core.analyze_ms_per_app", ms(an.wall))
	l.add("core.analyze_alloc_mb_per_app", mb(an.alloc))
	l.add("core.locate_sinks_ms_per_app", ms(split.spent["locate-sinks"]))
	l.add("core.backslice_ms_per_sink", ms(split.spent["backslice"]))
	l.add("constprop.forward_ms_per_sink", ms(split.spent["constprop"]))
	l.engineCounts(r, pre)

	op := read.wall + newCost.wall + an.wall
	l.add("trace.op_ms_per_app", ms(op))
	l.ops++
	return r, op, nil
}

// phaseClock attributes Analyze's wall time to engine phases: each
// PhaseSpan callback closes the interval since the previous one (or
// since Analyze began) and charges it to the phase just completed.
// Callbacks made outside Analyze are ignored.
type phaseClock struct {
	on    bool
	last  time.Time
	spent map[string]time.Duration
}

func (p *phaseClock) start(t time.Time) {
	p.on, p.last, p.spent = true, t, make(map[string]time.Duration)
}

func (p *phaseClock) span(phase string, _ int, _, _ int64) {
	if !p.on {
		return
	}
	now := time.Now()
	p.spent[phase] += now.Sub(p.last)
	p.last = now
}

func mb(bytes uint64) float64 { return float64(bytes) / (1 << 20) }

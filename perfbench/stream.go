package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"backdroid/internal/apk"
	"backdroid/internal/appgen"
	"backdroid/internal/core"
	"backdroid/internal/service"
	"backdroid/internal/service/api"
	"backdroid/internal/service/journal"
)

// Stream make-up. Every small and medium app appears in three versions:
// v1 analyzed cold, v2 a one-class literal change and v3 a one-class
// addition, both analyzed on the delta path, plus streamResubmits
// resubmissions of already-settled versions. Many-sink apps are
// analyzed cold once. With these counts an epoch is 227 jobs: 47 cold,
// 90 delta, 90 settled. Sorted by latency, the settled hits take the
// lowest 40%, the small engine jobs the next 40% and the medium and
// many-sink engine jobs the top 20%, so the median lies ten points inside
// the small engine jobs and the 90th percentile ten points inside the
// medium ones.
const (
	streamSmall     = 30
	streamMedium    = 15
	streamMany      = 2
	streamResubmits = 2
	// streamGap is how far apart the interleave tries to keep two jobs
	// of one app; the client also waits for an app's previous job to
	// settle before submitting its next.
	streamGap = 4
	// streamShapes seeds the fixed shapes of the stream.
	streamShapes = 20200523
)

type jobKind int

const (
	kindCold jobKind = iota
	kindDelta
	kindSettled
)

func (k jobKind) String() string {
	return [...]string{"cold", "delta", "settled"}[k]
}

// version is one app version on disk. Versions of one app share the
// file name in different directories, so the daemon gives their jobs
// one name and takes the delta path for the later ones.
type version struct {
	path  string
	truth *appgen.GroundTruth
	ref   []byte // canonical report of its first settlement
}

type streamJob struct {
	kind jobKind
	ver  *version
	dep  int // epoch position of the app's previous job, or -1
}

// stream is service-stream after set-up: the epoch's job sequence and
// its apps on disk. Each epoch runs the whole sequence against a fresh
// dispatcher — fresh bundle partitions, report store and journal — so
// its cold jobs are cold again; the set-up runs one reference epoch.
type stream struct {
	dir    string
	jobs   []streamJob
	nodes  int
	epochs int
	// journalErr is the first journal that did not reopen clean.
	journalErr error
}

// streamOp is one finished job as the client saw it.
type streamOp struct {
	pos     int // position in the epoch
	job     *streamJob
	submit  time.Time
	started time.Time
	done    time.Time
	report  *core.Report
	err     error
}

// epochStats are the service counters of one epoch.
type epochStats struct {
	reportHits, reportMisses float64
	bundleHits, bundleMisses float64
	bundleBytes, bundles     float64
	steals, stolen, handoffs float64
	appends, journalBytes    float64
}

func setupStream(seed int64) (*stream, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(".bench_build", "stream-")
	if err != nil {
		return nil, err
	}
	s := &stream{dir: dir, nodes: runtime.NumCPU()}
	if err := s.build(seed); err != nil {
		s.cleanup()
		return nil, err
	}
	// The reference epoch fills a dispatcher's stores and records each
	// version's first settlement; every later settlement must match it.
	var firstErr error
	_, err = s.epoch(func(op streamOp) {
		err := op.err
		if err == nil {
			err = s.check(op, true)
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}, startPhase())
	if err == nil {
		err = firstErr
	}
	if err == nil {
		err = s.journalErr
	}
	if err != nil {
		s.cleanup()
		return nil, fmt.Errorf("reference epoch: %w", err)
	}
	return s, nil
}

func (s *stream) cleanup() { _ = os.RemoveAll(s.dir) } // best effort: the directory is temporary

// build generates every app version, writes the containers and lays out
// the epoch's job sequence.
func (s *stream) build(seed int64) error {
	// The stream's shapes — app sizes, sink lists, update targets and
	// the interleave — are fixed; the seed re-seeds every generator, as
	// it does for the corpus.
	rng := rand.New(rand.NewSource(streamShapes))
	corpus := corpusSpecs(seed)
	var timelines [][]streamJob
	write := func(sub, name string, app *apk.App, truth *appgen.GroundTruth) (*version, error) {
		p := filepath.Join(s.dir, sub, name+".apk")
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			return nil, err
		}
		if err := app.Save(p); err != nil {
			return nil, err
		}
		return &version{path: p, truth: truth}, nil
	}
	for i := 0; i < streamSmall+streamMedium; i++ {
		c := corpus[(7*i+3)%len(corpus)]
		spec := appgen.Spec{Seed: c.Seed, FanOut: c.FanOut, DataDiversity: c.DataDiversity}
		if i < streamSmall {
			spec.Name = fmt.Sprintf("com.stream.small%02d", i)
			spec.SizeMB = 0.8 + 1.7*rng.Float64()
			spec.Sinks = c.Sinks[:min(len(c.Sinks), 1+rng.Intn(4))]
		} else {
			spec.Name = fmt.Sprintf("com.stream.medium%02d", i-streamSmall)
			spec.SizeMB = 10 + 8*rng.Float64()
			spec.Sinks = c.Sinks[:min(len(c.Sinks), 6+rng.Intn(11))]
		}
		v2spec := appgen.AppUpdateSpec{Base: spec, Mutation: appgen.MutateChangeLiteral,
			TargetSink: rng.Intn(len(spec.Sinks)), Seed: mix(seed, 6000+i)}
		// v3 adds one class to v2: a new flow or an inert class.
		base3 := spec
		base3.Sinks = append([]appgen.SinkSpec(nil), spec.Sinks...)
		base3.Sinks[v2spec.TargetSink].Insecure = !base3.Sinks[v2spec.TargetSink].Insecure
		v3spec := appgen.AppUpdateSpec{Base: base3, Mutation: appgen.MutateNewFlow, Seed: mix(seed, 7000+i)}
		if i%2 == 1 {
			v3spec.Mutation = appgen.MutateAddClass
		}
		var vers [3]*version
		for k := range vers {
			var app *apk.App
			var truth *appgen.GroundTruth
			var err error
			switch k {
			case 0:
				app, truth, err = appgen.Generate(spec)
			case 1:
				app, truth, err = appgen.GenerateUpdate(v2spec)
			case 2:
				app, truth, err = appgen.GenerateUpdate(v3spec)
			}
			if err != nil {
				return fmt.Errorf("generating %s v%d: %w", spec.Name, k+1, err)
			}
			if vers[k], err = write(fmt.Sprintf("v%d", k+1), spec.Name, app, truth); err != nil {
				return err
			}
		}
		tl := []streamJob{{kind: kindCold, ver: vers[0]}, {kind: kindDelta, ver: vers[1]}, {kind: kindDelta, ver: vers[2]}}
		// Resubmit already-settled versions at random points after their
		// first settlement.
		for r := 0; r < streamResubmits; r++ {
			at := 1 + rng.Intn(len(tl))
			settledBefore := []*version{}
			for _, j := range tl[:at] {
				if j.kind != kindSettled {
					settledBefore = append(settledBefore, j.ver)
				}
			}
			j := streamJob{kind: kindSettled, ver: settledBefore[rng.Intn(len(settledBefore))]}
			tl = append(tl[:at], append([]streamJob{j}, tl[at:]...)...)
		}
		timelines = append(timelines, tl)
	}
	for i := 0; i < streamMany; i++ {
		spec := appgen.ManySinkOutlierSpec(mix(seed, 3000+i))
		spec.Name = fmt.Sprintf("com.stream.many%d", i)
		app, truth, err := appgen.Generate(spec)
		if err != nil {
			return fmt.Errorf("generating %s: %w", spec.Name, err)
		}
		v, err := write("v1", spec.Name, app, truth)
		if err != nil {
			return err
		}
		timelines = append(timelines, []streamJob{{kind: kindCold, ver: v}})
	}
	s.jobs = interleave(timelines, rng)
	return nil
}

// interleave merges the apps' timelines into one sequence in a seeded
// random order, keeping each app's jobs in order and, where it can,
// streamGap positions apart. Each job depends on its app's previous one.
func interleave(timelines [][]streamJob, rng *rand.Rand) []streamJob {
	next := make([]int, len(timelines))
	last := make([]int, len(timelines))
	for i := range last {
		last[i] = -streamGap
	}
	var out []streamJob
	for {
		var open, spaced []int
		for a, tl := range timelines {
			if next[a] < len(tl) {
				open = append(open, a)
				if len(out)-last[a] >= streamGap {
					spaced = append(spaced, a)
				}
			}
		}
		if len(open) == 0 {
			return out
		}
		pick := open
		if len(spaced) > 0 {
			pick = spaced
		}
		a := pick[rng.Intn(len(pick))]
		j := timelines[a][next[a]]
		j.dep = -1
		if next[a] > 0 {
			j.dep = last[a]
		}
		last[a] = len(out)
		next[a]++
		out = append(out, j)
	}
}

// check applies service-stream's per-job checks: the ground-truth
// oracle, the job taking the path its kind names, and its canonical
// report equal to the version's first settlement. With reference set,
// a version's first settlement becomes that reference.
func (s *stream) check(op streamOp, reference bool) error {
	if op.err != nil {
		return nil // counted as failed by the caller
	}
	j, r := op.job, op.report
	if _, err := checkVerdicts(r, j.ver.truth, false); err != nil {
		return err
	}
	st := r.Stats
	switch j.kind {
	case kindSettled:
		if st.SettledLookups != 1 {
			return fmt.Errorf("%s: resubmission was not a settled hit", r.App)
		}
	case kindDelta:
		if st.SettledLookups != 0 || st.SinksReused+st.SinksRerun == 0 {
			return fmt.Errorf("%s: update did not take the delta path", r.App)
		}
	case kindCold:
		if st.SettledLookups != 0 || st.SinksReused+st.SinksRerun != 0 {
			return fmt.Errorf("%s: first version was not analyzed cold", r.App)
		}
	}
	enc := service.EncodeReport(r)
	if j.ver.ref == nil && reference {
		j.ver.ref = enc
		return nil
	}
	if !bytes.Equal(enc, j.ver.ref) {
		return fmt.Errorf("%s: %s report differs from the first settlement of %s", r.App, j.kind, j.ver.path)
	}
	return nil
}

// epoch runs the job sequence once against a fresh dispatcher with
// nodes fleet nodes, keeping nodes jobs in flight, and hands every
// finished job to each. phase is paused while the dispatcher is built
// and torn down. After the dispatcher closes, its journal must reopen
// with no pending job.
func (s *stream) epoch(each func(streamOp), phase *timedPhase) (epochStats, error) {
	phase.pause()
	jdir := filepath.Join(s.dir, fmt.Sprintf("journal-%d", s.epochs))
	s.epochs++
	jnl, _, err := journal.Open(jdir)
	if err != nil {
		phase.resume()
		return epochStats{}, err
	}
	reports := service.NewReportStore(0)
	reports.AttachJournal(jnl)
	opts := core.DefaultOptions()
	d := api.NewDispatcher(api.DispatcherConfig{Scheduler: service.Config{
		Options: &opts, Journal: jnl, Reports: reports, Nodes: s.nodes,
	}})
	sub := d.Subscribe()
	type stamped struct {
		ev service.Event
		at time.Time
	}
	events := make(chan stamped)
	go func() {
		defer close(events)
		for {
			ev, ok := sub.Next()
			if !ok {
				return
			}
			switch ev.Kind {
			case service.EventStarted, service.EventDone, service.EventFailed, service.EventCanceled:
				events <- stamped{ev, time.Now()}
			}
		}
	}()
	phase.resume()

	ops := make([]streamOp, len(s.jobs))
	settled := make([]bool, len(s.jobs))
	byID := make(map[int64]int)
	inflight, next := 0, 0
	var runErr error
	for (next < len(s.jobs) || inflight > 0) && runErr == nil {
		if next < len(s.jobs) && inflight < s.nodes {
			if dep := s.jobs[next].dep; dep < 0 || settled[dep] {
				ops[next] = streamOp{pos: next, job: &s.jobs[next], submit: time.Now()}
				resp, err := d.Submit(api.SubmitRequest{Path: s.jobs[next].ver.path})
				if err != nil {
					runErr = err
					break
				}
				byID[resp.ID] = next
				inflight++
				next++
				continue
			}
		}
		st := <-events
		i, ok := byID[int64(st.ev.Job)]
		if !ok {
			runErr = fmt.Errorf("event for unknown job %d", st.ev.Job)
			break
		}
		op := &ops[i]
		switch st.ev.Kind {
		case service.EventStarted:
			if op.started.IsZero() {
				op.started = st.at
			}
			continue
		case service.EventDone:
			op.report = st.ev.Result.BackDroid
		case service.EventFailed:
			op.err = st.ev.Err
		case service.EventCanceled:
			op.err = errors.New("job canceled")
		}
		op.done = st.at
		settled[i] = true
		inflight--
		each(*op)
	}

	phase.pause()
	defer phase.resume()
	stats := d.Stats(api.StatsRequest{})
	d.Close()
	for range events {
		// drain to the end of the subscription
	}
	var es epochStats
	if rs := stats.Reports; rs != nil {
		es.reportHits, es.reportMisses = float64(rs.Hits), float64(rs.Misses)
	}
	if f := stats.Fleet; f != nil {
		es.steals, es.stolen, es.handoffs = float64(f.Steals), float64(f.StolenSinks), float64(f.Handoffs)
		if f.Store != nil {
			es.bundleHits, es.bundleMisses = float64(f.Store.Hits), float64(f.Store.Misses)
			es.bundleBytes, es.bundles = float64(f.Store.Bytes), float64(f.Store.Entries)
		}
	}
	if js := stats.Journal; js != nil {
		es.appends, es.journalBytes = float64(js.Appends), float64(js.Bytes)
	}
	if err := jnl.Close(); err != nil && runErr == nil {
		runErr = err
	}
	if runErr == nil && s.journalErr == nil {
		s.journalErr = reopenClean(jdir)
	}
	_ = os.RemoveAll(jdir) // best effort: temporary
	return es, runErr
}

// reopenClean reopens a closed journal and fails if any job is pending.
func reopenClean(dir string) error {
	j, pending, err := journal.Open(dir)
	if err != nil {
		return fmt.Errorf("reopening journal: %w", err)
	}
	defer j.Close()
	if len(pending) != 0 || j.Stats().Pending != 0 {
		return fmt.Errorf("journal reopened with %d pending jobs", len(pending))
	}
	return nil
}

func (s *stream) verify() error { return s.journalErr }

// calPerEpoch is how many kernel runs sample the host's speed before
// each epoch and after the last.
const calPerEpoch = 8

// measure runs whole epochs; each epoch is a round. Kernel runs between
// the epochs sample the host's speed; an epoch's slowdown is the median
// of the samples just before and just after it.
func (s *stream) measure(d time.Duration, traced bool) (*tally, *timing, *layers, error) {
	defer s.cleanup()
	t := &tally{}
	l := newLayers()
	var wait []float64
	byKind := make(map[jobKind][]float64)
	var reused, rerun float64
	var total epochStats
	type epochRun struct {
		c    cost
		lats []time.Duration
	}
	var runs []epochRun
	var cal calibration
	var walls []time.Duration
	for moreRounds(walls, d) {
		cal.sample(calPerEpoch)
		phase := startPhase()
		var lats []time.Duration
		es, err := s.epoch(func(op streamOp) {
			lat := op.done.Sub(op.submit)
			if !t.record(op.err, s.check(op, false)) {
				return
			}
			lats = append(lats, lat)
			byKind[op.job.kind] = append(byKind[op.job.kind], ms(lat))
			wait = append(wait, ms(op.started.Sub(op.submit)))
			if traced {
				l.engineCounts(op.report, -1)
				l.ops++
				if op.job.kind == kindDelta {
					reused += float64(op.report.Stats.SinksReused)
					rerun += float64(op.report.Stats.SinksRerun)
				}
			}
		}, phase)
		if err != nil {
			return nil, nil, nil, err
		}
		c := phase.end()
		runs = append(runs, epochRun{c, lats})
		walls = append(walls, c.wall)
		total.add(es)
	}
	cal.sample(calPerEpoch)
	tm := &timing{}
	for e, r := range runs {
		tm.add(r.c, cal.slowdown(e*calPerEpoch, (e+2)*calPerEpoch), r.lats)
	}
	if !traced {
		return t, tm, nil, nil
	}
	jobs := float64(l.ops)
	l.fixed["service.queue_wait_ms_p50"] = median(wait)
	l.fixed["service.cold_ms_p50"] = median(byKind[kindCold])
	l.fixed["service.delta_ms_p50"] = median(byKind[kindDelta])
	l.fixed["service.settled_ms_p50"] = median(byKind[kindSettled])
	l.fixed["service.settled_hit_ratio"] = ratio(total.reportHits, total.reportHits+total.reportMisses)
	l.fixed["service.bundle_hit_ratio"] = ratio(total.bundleHits, total.bundleHits+total.bundleMisses)
	l.fixed["service.delta_reuse_ratio"] = ratio(reused, reused+rerun)
	l.fixed["service.steals"] = ratio(total.steals, jobs)
	l.fixed["service.stolen_sinks"] = ratio(total.stolen, jobs)
	l.fixed["service.handoffs"] = ratio(total.handoffs, jobs)
	l.fixed["journal.appends_per_job"] = ratio(total.appends, jobs)
	l.fixed["journal.kb_per_job"] = ratio(total.journalBytes/1024, jobs)
	l.fixed["dexdump.bundle_kb_per_app"] = ratio(total.bundleBytes/1024, total.bundles)
	return t, tm, l, nil
}

func (e *epochStats) add(o epochStats) {
	e.reportHits += o.reportHits
	e.reportMisses += o.reportMisses
	e.bundleHits += o.bundleHits
	e.bundleMisses += o.bundleMisses
	e.bundleBytes += o.bundleBytes
	e.bundles += o.bundles
	e.steals += o.steals
	e.stolen += o.stolen
	e.handoffs += o.handoffs
	e.appends += o.appends
	e.journalBytes += o.journalBytes
}

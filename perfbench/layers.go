package main

import "backdroid/internal/core"

// layerMetrics is the per-layer catalog a traced run prints, in order.
// A layer a workload does not exercise, or whose time cannot be taken
// from outside the program there, reads 0 (see README.md).
var layerMetrics = []struct{ name, unit string }{
	{"apk.read_ms_per_app", "ms"},
	{"apk.read_alloc_mb_per_app", "MB"},
	{"dex.merge_ms_per_app", "ms"},
	{"dexdump.disassemble_ms_per_app", "ms"},
	{"dexdump.disassemble_alloc_mb_per_app", "MB"},
	{"dexdump.index_build_ms_per_app", "ms"},
	{"dexdump.index_alloc_mb_per_app", "MB"},
	{"dexdump.lines_per_app", "lines"},
	{"dexdump.postings_per_app", "count"},
	{"dexdump.bundle_decode_ms_per_app", "ms"},
	{"dexdump.bundle_kb_per_app", "KB"},
	{"ir.program_ms_per_app", "ms"},
	{"cha.build_ms_per_app", "ms"},
	{"core.new_ms_per_app", "ms"},
	{"core.analyze_ms_per_app", "ms"},
	{"core.analyze_alloc_mb_per_app", "MB"},
	{"core.locate_sinks_ms_per_app", "ms"},
	{"core.backslice_ms_per_sink", "ms"},
	{"core.sink_cache_ratio", "ratio"},
	{"core.methods_analyzed_per_app", "count"},
	{"constprop.forward_ms_per_sink", "ms"},
	{"constprop.memo_hits_per_app", "count"},
	{"bcsearch.commands_per_app", "count"},
	{"bcsearch.cache_hit_ratio", "ratio"},
	{"bcsearch.postings_scanned_per_app", "count"},
	{"simtime.units_per_app", "units"},
	{"simtime.preprocess_units_per_app", "units"},
	{"simtime.analysis_units_per_app", "units"},
	{"service.queue_wait_ms_p50", "ms"},
	{"service.cold_ms_p50", "ms"},
	{"service.delta_ms_p50", "ms"},
	{"service.settled_ms_p50", "ms"},
	{"service.settled_hit_ratio", "ratio"},
	{"service.bundle_hit_ratio", "ratio"},
	{"service.delta_reuse_ratio", "ratio"},
	{"service.steals", "1/job"},
	{"service.stolen_sinks", "sinks/job"},
	{"service.handoffs", "1/job"},
	{"journal.appends_per_job", "count"},
	{"journal.kb_per_job", "KB"},
	{"gc.cpu_ms_per_app", "ms"},
	{"gc.cycles_per_app", "count"},
	{"trace.op_ms_per_app", "ms"},
	{"host.slowdown", "ratio"},
}

// layers accumulates a traced run's per-layer figures. Per-app figures
// are sums divided by ops at the end, per-sink ones by sinks; ratios
// keep numerator and denominator apart so they weigh every call alike.
type layers struct {
	ops   int
	sinks int
	sum   map[string]float64
	// fixed holds figures computed whole (service percentiles and
	// ratios), printed as they are.
	fixed map[string]float64

	sinkCalls, sinkCached float64
	commands, cacheHits   float64
}

func newLayers() *layers {
	return &layers{sum: make(map[string]float64), fixed: make(map[string]float64)}
}

func (l *layers) add(name string, v float64) { l.sum[name] += v }

// engineCounts adds the counters an engine report carries. pre is the
// meter reading after core.New — the units charged before Analyze — or
// -1 when it was not observed.
func (l *layers) engineCounts(r *core.Report, pre int64) {
	st := r.Stats
	l.sinks += len(r.Sinks)
	l.add("core.methods_analyzed_per_app", float64(st.MethodsAnalyzed))
	l.add("constprop.memo_hits_per_app", float64(st.ForwardMemoHits))
	l.add("bcsearch.commands_per_app", float64(st.Search.Commands))
	l.add("bcsearch.postings_scanned_per_app", float64(st.Search.PostingsScanned))
	l.add("simtime.units_per_app", float64(st.WorkUnits))
	if pre >= 0 {
		l.add("simtime.preprocess_units_per_app", float64(pre))
		l.add("simtime.analysis_units_per_app", float64(st.WorkUnits-pre))
	}
	l.sinkCalls += float64(st.SinkCallsTotal)
	l.sinkCached += float64(st.SinkCallsCached)
	l.commands += float64(st.Search.Commands)
	l.cacheHits += float64(st.Search.CacheHits)
}

// metrics renders the catalog. ops is the number of operations the
// timed phase completed; tm is its timing, for the host's slowdown.
// The GC figures are read over the whole timed phase.
func (l *layers) metrics(ops int, tm *timing) map[string]metric {
	out := make(map[string]metric, len(layerMetrics))
	for _, m := range layerMetrics {
		var v float64
		switch m.name {
		case "core.backslice_ms_per_sink", "constprop.forward_ms_per_sink":
			v = ratio(l.sum[m.name], float64(l.sinks))
		case "core.sink_cache_ratio":
			v = ratio(l.sinkCached, l.sinkCalls)
		case "bcsearch.cache_hit_ratio":
			v = ratio(l.cacheHits, l.commands)
		case "gc.cpu_ms_per_app":
			v = ratio(tm.raw.gcCPU*1000, float64(ops))
		case "gc.cycles_per_app":
			v = ratio(float64(tm.raw.gcCycles), float64(ops))
		case "host.slowdown":
			v = median(tm.slow)
		default:
			if f, ok := l.fixed[m.name]; ok {
				v = f
			} else {
				v = ratio(l.sum[m.name], float64(l.ops))
			}
		}
		out[m.name] = metric{Value: v, Unit: m.unit}
	}
	return out
}

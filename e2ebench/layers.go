package main

import (
	"sort"
	"strings"

	"varbench/e2ebench/trace"
)

// perLayer are the metrics of traced runs: what each layer did and how
// long it took, measured by spans around the calls into it. Each
// percentile's sample count is the matching .count metric. A layer a
// workload does not exercise reports zeros. Shares divide a layer's self
// time by the self time of every span, so with more than one worker they
// are shares of busy time, not of wall time.
var perLayer = []metricDef{
	{"trial.count", "count", "lower"},
	{"trial.ms_p50", "ms", "lower"},
	{"trial.ms_p99", "ms", "lower"},
	{"trial.split_s", "s", "lower"},
	{"trial.train_s", "s", "lower"},
	{"trial.measure_s", "s", "lower"},
	{"trial.alloc_kb", "KiB", "lower"},
	{"trial.allocs", "count", "lower"},
	{"collect.self_s", "s", "lower"},
	{"collect.attempts_per_cell", "ratio", "lower"},
	{"collect.batch.count", "count", "lower"},
	{"collect.batch_ms_p50", "ms", "lower"},
	{"collect.batch_ms_p99", "ms", "lower"},
	{"collect.replay_s", "s", "lower"},
	{"variance.summary_ms", "ms", "lower"},
	{"store.open_ms", "ms", "lower"},
	{"store.close_ms", "ms", "lower"},
	{"store.get.count", "count", "lower"},
	{"store.get.hit_ratio", "ratio", "higher"},
	{"store.get.us_p50", "us", "lower"},
	{"store.get.us_p99", "us", "lower"},
	{"store.put.count", "count", "lower"},
	{"store.put.us_p50", "us", "lower"},
	{"store.put.us_p99", "us", "lower"},
	{"store.putjson.count", "count", "lower"},
	{"store.putjson.ms_p50", "ms", "lower"},
	{"store.putjson.ms_p99", "ms", "lower"},
	{"store.flush.count", "count", "lower"},
	{"store.flush.ms", "ms", "lower"},
	{"store.bytes_per_cell", "B", "lower"},
	{"store.mb", "MiB", "lower"},
	{"analysis.extend.count", "count", "lower"},
	{"analysis.extend_s", "s", "lower"},
	{"analysis.extend.ns_per_cell", "ns", "lower"},
	{"analysis.result_ms", "ms", "lower"},
	{"analysis.compare_s", "s", "lower"},
	{"analysis.compare.ns_per_cell", "ns", "lower"},
	{"ingest.lines", "count", "lower"},
	{"ingest.ns_per_line", "ns", "lower"},
	{"ingest.bad_lines", "count", "lower"},
	{"render.ms", "ms", "lower"},
	{"render.bytes", "B", "lower"},
	{"gc.count", "count", "lower"},
	{"gc.pause_ms", "ms", "lower"},
	{"trace.overhead", "ratio", "lower"},
	{"main.self_share", "ratio", "lower"},
	{"trial.self_share", "ratio", "lower"},
	{"collect.self_share", "ratio", "lower"},
	{"store.self_share", "ratio", "lower"},
	{"analysis.self_share", "ratio", "lower"},
	{"ingest.self_share", "ratio", "lower"},
	{"render.self_share", "ratio", "lower"},
}

// perLayerValues computes the traced rounds' metrics, each the median over
// rounds, plus the tracing overhead: the traced rounds' median wall time
// over the untraced rounds', minus 1.
func (s *summary) perLayerValues() map[string]float64 {
	traced := s.passing(true)
	out := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		out[d.name] = medianOf(traced, func(r *round) float64 { return r.layers[d.name] })
	}
	if untraced := s.passing(false); len(traced) > 0 && len(untraced) > 0 {
		wall := func(r *round) float64 { return r.wall().Seconds() }
		out["trace.overhead"] = medianOf(traced, wall)/medianOf(untraced, wall) - 1
	}
	return out
}

// layerValues reads a traced round's span files and attributes them.
func (r *round) layerValues() (map[string]float64, error) {
	all := &trace.Trace{Counters: make(map[string]int64)}
	for _, path := range r.traces {
		tr, err := trace.ReadFile(path)
		if err != nil {
			return nil, err
		}
		all.Append(tr)
	}
	v := attribute(all)
	if r.storeCells > 0 {
		v["store.bytes_per_cell"] = float64(r.storeBytes) / float64(r.storeCells)
	}
	v["store.mb"] = float64(r.storeBytes) / mib
	return v, nil
}

// attribute turns one traced round's spans and counters into per-layer
// metrics. Times are in nanoseconds until converted.
func attribute(tr *trace.Trace) map[string]float64 {
	const ms, us, sec = 1e6, 1e3, 1e9
	self := tr.SelfTimes()
	durs := make(map[string][]float64)
	layerSelf := make(map[string]float64)
	var totalSelf float64
	var trialStarts []int64
	for i, sp := range tr.Spans {
		durs[sp.Name] = append(durs[sp.Name], float64(sp.End-sp.Start))
		layer, _, _ := strings.Cut(sp.Name, ".")
		layerSelf[layer] += float64(self[i])
		totalSelf += float64(self[i])
		if sp.Name == trace.Trial {
			trialStarts = append(trialStarts, sp.Start)
		}
	}
	sort.Slice(trialStarts, func(i, j int) bool { return trialStarts[i] < trialStarts[j] })
	sum := func(name string) float64 {
		var t float64
		for _, d := range durs[name] {
			t += d
		}
		return t
	}
	count := func(name string) float64 { return float64(len(durs[name])) }
	pct := func(name string, p, unit float64) float64 {
		xs := make([]float64, len(durs[name]))
		for i, d := range durs[name] {
			xs[i] = d / unit
		}
		return trace.Percentile(xs, p)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	c := func(name string) float64 { return float64(tr.Counters[name]) }

	trials := count(trace.Trial)
	v := map[string]float64{
		"trial.count":     trials,
		"trial.ms_p50":    pct(trace.Trial, 50, ms),
		"trial.ms_p99":    pct(trace.Trial, 99, ms),
		"trial.split_s":   sum(trace.TrialSplit) / sec,
		"trial.train_s":   sum(trace.TrialTrain) / sec,
		"trial.measure_s": sum(trace.TrialMeasure) / sec,
		"trial.alloc_kb":  ratio(c(trace.CountAllocBytes)/1024, trials),
		"trial.allocs":    ratio(c(trace.CountMallocs), trials),

		"collect.attempts_per_cell": ratio(trials, count(trace.StorePut)),

		"store.open_ms":        sum(trace.StoreOpen) / ms,
		"store.close_ms":       sum(trace.StoreClose) / ms,
		"store.get.count":      count(trace.StoreGet),
		"store.get.hit_ratio":  ratio(c(trace.CountStoreHits), count(trace.StoreGet)),
		"store.get.us_p50":     pct(trace.StoreGet, 50, us),
		"store.get.us_p99":     pct(trace.StoreGet, 99, us),
		"store.put.count":      count(trace.StorePut),
		"store.put.us_p50":     pct(trace.StorePut, 50, us),
		"store.put.us_p99":     pct(trace.StorePut, 99, us),
		"store.putjson.count":  count(trace.StorePutJSON),
		"store.putjson.ms_p50": pct(trace.StorePutJSON, 50, ms),
		"store.putjson.ms_p99": pct(trace.StorePutJSON, 99, ms),
		"store.flush.count":    count(trace.StoreFlush),
		"store.flush.ms":       sum(trace.StoreFlush) / ms,

		"analysis.extend.count":        count(trace.AnalysisExtend),
		"analysis.extend_s":            sum(trace.AnalysisExtend) / sec,
		"analysis.extend.ns_per_cell":  ratio(sum(trace.AnalysisExtend), c(trace.CountExtendCells)),
		"analysis.result_ms":           sum(trace.AnalysisResult) / ms,
		"analysis.compare_s":           sum(trace.AnalysisAnalyze) / sec,
		"analysis.compare.ns_per_cell": ratio(sum(trace.AnalysisAnalyze), c(trace.CountAnalyzeCells)),

		"ingest.lines":       count(trace.IngestParse),
		"ingest.ns_per_line": ratio(sum(trace.IngestFeed), count(trace.IngestParse)),
		"ingest.bad_lines":   c(trace.CountBadLines),

		"render.ms":    sum(trace.Render) / ms,
		"render.bytes": c(trace.CountRenderB),

		"gc.count":    c(trace.CountGC),
		"gc.pause_ms": c(trace.CountGCPauseNs) / ms,
	}
	for _, layer := range []string{"main", "trial", "collect", "store", "analysis", "ingest", "render"} {
		v[layer+".self_share"] = ratio(layerSelf[layer], totalSelf)
	}

	// Collection: the Run spans' self time; the replay before the first
	// computed trial; the gaps between Progress callbacks that close a
	// batch with computed trials; and the tail of a variance study after
	// its last trial.
	var runSelf, replay, summaryTail float64
	var expStart int64 // where the first batch's gap begins
	var progress []int64
	for i, sp := range tr.Spans {
		switch sp.Name {
		case trace.CollectExperiment, trace.CollectVariance:
			if sp.Name == trace.CollectExperiment {
				expStart = sp.Start
			}
			runSelf += float64(self[i])
			first := sort.Search(len(trialStarts), func(j int) bool { return trialStarts[j] >= sp.Start })
			if first < len(trialStarts) && trialStarts[first] <= sp.End {
				replay += float64(trialStarts[first] - sp.Start)
			} else {
				replay += float64(sp.End - sp.Start)
			}
			if sp.Name == trace.CollectVariance {
				var lastEnd int64 = sp.Start
				for _, t := range tr.Spans {
					if t.Name == trace.Trial && t.End <= sp.End {
						lastEnd = max(lastEnd, t.End)
					}
				}
				summaryTail += float64(sp.End - lastEnd)
			}
		case trace.CollectProgress:
			progress = append(progress, sp.Start)
		}
	}
	sort.Slice(progress, func(i, j int) bool { return progress[i] < progress[j] })
	var gaps []float64
	prev := expStart
	for _, t := range progress {
		// A trial started after the previous callback: this batch was
		// computed, not served from the store.
		if j := sort.Search(len(trialStarts), func(j int) bool { return trialStarts[j] > prev }); j < len(trialStarts) && trialStarts[j] <= t {
			gaps = append(gaps, float64(t-prev)/ms)
		}
		prev = t
	}
	v["collect.self_s"] = runSelf / sec
	v["collect.replay_s"] = replay / sec
	v["variance.summary_ms"] = summaryTail / ms
	v["collect.batch.count"] = float64(len(gaps))
	v["collect.batch_ms_p50"] = trace.Percentile(gaps, 50)
	v["collect.batch_ms_p99"] = trace.Percentile(gaps, 99)
	return v
}

package main

import "fmt"

// spec names one reported metric and its unit. BENCHMARK.json lists the
// same names (a test keeps the two in step).
type spec struct{ Name, Unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// workload with --trace 0.
var endToEnd = []spec{
	{"setup_s", "s"},
	{"rankings_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"cpu_ms_per_ranking", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the single-layer metrics a --trace 1 run reports. A layer
// a workload does not exercise reads 0 and prints as n/a.
var perLayer = []spec{
	{"hotserve.predict_ms_p50", "ms"},
	{"hotserve.predict_share", "ratio"},
	{"hotserve.admission_ms_p50", "ms"},
	{"hotserve.lookup_ms_p50", "ms"},
	{"hotserve.rank_ms_p50", "ms"},
	{"hotserve.encode_ms_p50", "ms"},
	{"hotserve.edge_ms_mean", "ms"},
	{"hotserve.reload_ms_p50", "ms"},
	{"hotserve.reloads", "count"},
	{"hotserve.sheds", "count"},
	{"forecast.descend_ns_per_row", "ns"},
	{"forecast.feature_fetch_s", "s"},
	{"forecast.feature_fetch_ms_p50", "ms"},
	{"featcache.hit_ratio", "ratio"},
	{"featcache.misses", "count"},
	{"featcache.evictions", "count"},
	{"featcache.waits", "count"},
	{"featcache.bytes_mb", "MB"},
	{"features.build_ms_p50", "ms"},
	{"core.predict_ms_p50", "ms"},
	{"core.topk_us_p50", "us"},
	{"registry.load_ms_p50", "ms"},
	{"registry.publish_ms_p50", "ms"},
	{"parallel.queue_depth_max", "count"},
	{"forecast.fit_ms_p50.rf-f1", "ms"},
	{"forecast.fit_ms_p50.gbt-f1", "ms"},
	{"forecast.binned_matrix_ms_p50", "ms"},
	{"modelcache.hit_ratio", "ratio"},
	{"simnet.generate_s", "s"},
	{"setup.train_s", "s"},
	{"setup.ready_s", "s"},
	{"runtime.alloc_bytes_per_ranking", "bytes"},
	{"runtime.gc_cycles", "count"},
	{"trace.overhead_pct", "%"},
}

// spanLayers maps per-layer metrics to the spans whose median they report,
// with the unit scale from seconds.
var spanLayers = []struct {
	metric, span string
	scale        float64
}{
	{"features.build_ms_p50", "features.BuildAllSectors", 1e3},
	{"core.predict_ms_p50", "core.Pipeline.Predict", 1e3},
	{"core.topk_us_p50", "core.TopK", 1e6},
	{"registry.publish_ms_p50", "registry.Publish", 1e3},
	{"forecast.fit_ms_p50.rf-f1", "core.Pipeline.Train:RF-F1", 1e3},
	{"forecast.fit_ms_p50.gbt-f1", "core.Pipeline.Train:GBT-F1", 1e3},
	{"forecast.binned_matrix_ms_p50", "forecast.Context.BinnedTrainingMatrix", 1e3},
	{"simnet.generate_s", "simnet.generate", 1},
	{"setup.train_s", "setup.train", 1},
	{"setup.ready_s", "setup.ready", 1},
}

// e2e records an end-to-end metric.
func (r *runner) e2e(name, unit string, v float64) { r.e2eM[name] = metric{Value: v, Unit: unit} }

// layer records a per-layer metric.
func (r *runner) layer(name, unit string, v float64) { r.layerM[name] = metric{Value: v, Unit: unit} }

// finalMetrics picks the set the result line reports and checks it is
// complete: every end-to-end metric untraced; every per-layer metric
// traced, where layers the workload never reached read 0.
func (r *runner) finalMetrics() (map[string]metric, error) {
	if r.tr == nil {
		for _, s := range endToEnd {
			if _, ok := r.e2eM[s.Name]; !ok {
				return nil, fmt.Errorf("workload %s did not measure %s", r.workload, s.Name)
			}
		}
		return r.e2eM, nil
	}
	sums := summarize(r.tr.Spans())
	for _, sl := range spanLayers {
		if _, ok := r.layerM[sl.metric]; !ok {
			if v, ok := p50Of(sums, sl.span); ok {
				r.layerM[sl.metric] = metric{Value: v * sl.scale}
			}
		}
	}
	out := map[string]metric{}
	for _, s := range perLayer {
		m, ok := r.layerM[s.Name]
		if !ok {
			fmt.Printf("layer %-36s n/a on %s\n", s.Name, r.workload)
		}
		out[s.Name] = metric{Value: m.Value, Unit: s.Unit}
	}
	return out, nil
}

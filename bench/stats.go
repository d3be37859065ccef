package main

import (
	"math"
	"slices"
	"sort"
)

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricDef struct{ name, unit string }

// endToEnd are the six metrics every workload reports with -trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"typ_ms", "ms"},
	{"tail_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
}

// serverCounts are the per-layer metrics taken from the /metrics delta
// around the measured phase.
var serverCounts = []metricDef{
	{"sparql.rows_joined_per_solution", "count"},
	{"sparql.rows_materialized_per_solution", "count"},
	{"sparql.queries_per_op", "count"},
	{"store.lease_wait_us_per_op", "us"},
	{"store.quads_added_per_upload", "count"},
	{"matview.deltas_per_upload", "count"},
	{"matview.reeval_ratio", "ratio"},
	{"matview.skip_ratio", "ratio"},
	{"resolver.requests_per_upload", "count"},
	{"annotate.candidates_per_upload", "count"},
}

// replayed are the per-layer metrics of the traced in-process replay.
var replayed = []metricDef{
	// read path
	{"web.handler_ms", "ms"}, {"web.http_overhead_ms", "ms"},
	{"feed.build_ms", "ms"}, {"feed.write_ms", "ms"},
	{"matview.read_ms", "ms"}, {"matview.register_ms", "ms"},
	{"album.about_resource_ms", "ms"}, {"album.keyword_fresh_ms", "ms"},
	{"store.text_prefix_ms", "ms"},
	{"sparql.parse_ms", "ms"}, {"sparql.plan_ms", "ms"}, {"sparql.exec_ms", "ms"},
	{"sparql.bgp_self_ms", "ms"}, {"sparql.nonbgp_self_ms", "ms"}, {"sparql.lease_wait_ms", "ms"},
	// write path
	{"ugc.publish_ms", "ms"}, {"annotate.annotate_ms", "ms"},
	{"resolver.text_ms", "ms"}, {"resolver.term_ms", "ms"}, {"langdetect.detect_us", "us"},
	{"ugc.publish_self_ms", "ms"}, {"matview.sync_ms_per_upload", "ms"},
	// bulk, set-up, runtime
	{"lod.generate_ms", "ms"}, {"workload.generate_ms", "ms"},
	{"store.dump_ms", "ms"}, {"rdf.parse_nquads_ms", "ms"}, {"store.load_ms", "ms"},
	{"store.load_quads_per_s", "1/s"}, {"store.snapshot_bytes_per_quad", "B"},
	{"go.alloc_kb_per_op", "kB"}, {"go.gc_pause_us_per_op", "us"}, {"go.heap_live_mb", "MB"},
}

// perLayer lists every metric a -trace 1 run reports, in the order
// BENCHMARK.json lists them.
func perLayer() []metricDef {
	var out []metricDef
	for _, r := range routes {
		out = append(out, metricDef{"web." + r + ".p50_ms", "ms"}, metricDef{"web." + r + ".p95_ms", "ms"})
	}
	for _, s := range shapes {
		out = append(out, metricDef{"sparql.shape." + s.name + ".p50_ms", "ms"})
	}
	out = append(out, metricDef{"web.slo_miss_ratio", "ratio"}, metricDef{"web.resp_kb_per_op", "kB"})
	out = append(out, serverCounts...)
	return append(out, replayed...)
}

// classStat digests one request class of a run.
type classStat struct {
	Class  string  `json:"class"`
	Count  int     `json:"count"`
	Failed int     `json:"failed"`
	P50Ms  float64 `json:"p50Ms"`
	P95Ms  float64 `json:"p95Ms"`
	// Near50/Near95 are the shares of the class's samples within 5% of
	// the percentile: a percentile that sits between two modes has
	// almost none, and moves a lot for a small change.
	Near50 float64 `json:"near50"`
	Near95 float64 `json:"near95"`
}

// thin reports a class too small or too sparse around its percentiles
// for them to be trusted on their own.
func (c classStat) thin() bool {
	return c.Count < 200 || c.Near50 < 0.01 || c.Near95 < 0.01
}

// latencyMs is the sample's latency; a request never sent counts as
// one that timed out.
func (s sample) latencyMs() float64 {
	if s.status == 0 && s.ns == 0 {
		return requestTimeout.Seconds() * 1e3
	}
	return float64(s.ns) / 1e6
}

// percentile is the nearest-rank percentile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[max(int(math.Ceil(p*float64(len(sorted))))-1, 0)]
}

func near(sorted []float64, v float64) float64 {
	lo := sort.SearchFloat64s(sorted, v*0.95)
	hi := sort.SearchFloat64s(sorted, math.Nextafter(v*1.05, math.Inf(1)))
	return float64(hi-lo) / float64(len(sorted))
}

// classStats groups the run's samples by key (class or route) and
// digests each group, in key order.
func classStats(r *httpRun, key func(*op) string) []classStat {
	lat := map[string][]float64{}
	failed := map[string]int{}
	for i, s := range r.samples {
		k := key(&r.seq.ops[i])
		lat[k] = append(lat[k], s.latencyMs())
		if s.failed() {
			failed[k]++
		}
	}
	keys := make([]string, 0, len(lat))
	for k := range lat {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]classStat, 0, len(keys))
	for _, k := range keys {
		v := lat[k]
		sort.Float64s(v)
		p50, p95 := percentile(v, 0.5), percentile(v, 0.95)
		out = append(out, classStat{Class: k, Count: len(v), Failed: failed[k],
			P50Ms: p50, P95Ms: p95, Near50: near(v, p50), Near95: near(v, p95)})
	}
	return out
}

func (r *httpRun) failedCount() int {
	n := 0
	for _, s := range r.samples {
		if s.failed() {
			n++
		}
	}
	return n
}

// endToEndMetrics computes the six end-to-end metrics. typ_ms and
// tail_ms weight each class's own median and p95 by its request count:
// a percentile of the mixture would land between the classes' modes.
func endToEndMetrics(r *httpRun, setupS float64) map[string]value {
	n := float64(len(r.samples))
	var typ, tail float64
	for _, c := range classStats(r, (*op).class) {
		typ += float64(c.Count) * c.P50Ms
		tail += float64(c.Count) * c.P95Ms
	}
	return map[string]value{
		"setup_s":       {setupS, "s"},
		"ops_per_s":     {n / r.wall.Seconds(), "1/s"},
		"typ_ms":        {typ / n, "ms"},
		"tail_ms":       {tail / n, "ms"},
		"cpu_ms_per_op": {r.cpuS * 1e3 / n, "ms"},
		"peak_rss_mb":   {r.peakMB, "MB"},
	}
}

// sloLimitMs is the server's own latency objective for the route (its
// SLO evaluator's 50 ms for search, 250 ms for the feeds and /sparql);
// routes it sets none for are held to the looser one.
func sloLimitMs(route string) float64 {
	if route == routeSearch {
		return 50
	}
	return 250
}

// clientMetrics are the per-layer metrics the driver itself observes.
// A class the workload never requests reads 0.
func clientMetrics(r *httpRun, into map[string]value) {
	for _, c := range classStats(r, func(o *op) string { return o.Route }) {
		into["web."+c.Class+".p50_ms"] = value{c.P50Ms, "ms"}
		into["web."+c.Class+".p95_ms"] = value{c.P95Ms, "ms"}
	}
	for _, c := range classStats(r, func(o *op) string { return o.Shape }) {
		if c.Class != "" {
			into["sparql.shape."+c.Class+".p50_ms"] = value{c.P50Ms, "ms"}
		}
	}
	var missed, bytes float64
	for i, s := range r.samples {
		if s.failed() || s.latencyMs() > sloLimitMs(r.seq.ops[i].Route) {
			missed++
		}
		bytes += float64(s.bytes)
	}
	n := float64(len(r.samples))
	into["web.slo_miss_ratio"] = value{missed / n, "ratio"}
	into["web.resp_kb_per_op"] = value{bytes / 1024 / n, "kB"}
}

// serverMetrics turns the /metrics delta into per-operation counts. A
// series the server no longer exports leaves its metric at 0 and is
// named in r.gone: a renamed counter must not fail the benchmark.
func serverMetrics(r *httpRun, into map[string]value) {
	d := func(series string) float64 {
		v, ok := r.delta[series]
		if !ok && !slices.Contains(r.gone, series) {
			r.gone = append(r.gone, series)
		}
		return v
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	ops := float64(len(r.samples))
	uploads := d("lodify_ugc_published_total")
	folds := d("lodify_matview_delta_total") + d("lodify_matview_reeval_total") + d("lodify_matview_skip_total")
	for name, v := range map[string]float64{
		"sparql.rows_joined_per_solution":       ratio(d("lodify_sparql_rows_joined_total"), d("lodify_sparql_solutions_total")),
		"sparql.rows_materialized_per_solution": ratio(d("lodify_sparql_rows_materialized_total"), d("lodify_sparql_solutions_total")),
		"sparql.queries_per_op":                 ratio(d("lodify_sparql_queries_total"), ops),
		"store.lease_wait_us_per_op":            ratio(d("lodify_store_lease_wait_seconds_sum")*1e6, ops),
		"store.quads_added_per_upload":          ratio(d("lodify_store_quads_added_total"), uploads),
		"matview.deltas_per_upload":             ratio(d("lodify_matview_delta_total"), uploads),
		"matview.reeval_ratio":                  ratio(d("lodify_matview_reeval_total"), folds),
		"matview.skip_ratio":                    ratio(d("lodify_matview_skip_total"), folds),
		"resolver.requests_per_upload":          ratio(d("lodify_resolver_requests_total"), uploads),
		"annotate.candidates_per_upload":        ratio(d("lodify_annotate_candidates_total"), uploads),
	} {
		into[name] = value{v, unitOf(serverCounts, name)}
	}
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}

// median and spread of repeated runs, for -repeat.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func spread(v []float64) float64 {
	if m := median(v); m != 0 {
		return (slices.Max(v) - slices.Min(v)) / m
	}
	return 0
}

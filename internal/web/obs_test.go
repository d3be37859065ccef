package web

import (
	"net/http"
	"strings"
	"testing"

	"lodify/internal/obs"
)

// TestMetricsEndpointReflectsServedRequests drives a request through
// the middleware and asserts the /metrics exposition shows it: the
// per-route counter moved and the latency histogram counted it, the
// SLO gauges are exposed, and a profiled query left its per-operator
// totals.
func TestMetricsEndpointReflectsServedRequests(t *testing.T) {
	s, _ := server(t)
	before := obs.Default.CounterValue("lodify_http_requests_total")

	rec := get(t, s, "/api/search?q=mole", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("search code = %d", rec.Code)
	}
	if rec.Header().Get(obs.TraceHeader) == "" {
		t.Fatal("middleware did not echo a trace id")
	}
	if rec := get(t, s, sparqlURL(map[string]string{"query": album3Join, "explain": "analyze"}), nil); rec.Code != http.StatusOK {
		t.Fatalf("explain analyze code = %d", rec.Code)
	}

	mrec := get(t, s, "/metrics", nil)
	if mrec.Code != http.StatusOK {
		t.Fatalf("/metrics code = %d", mrec.Code)
	}
	if ct := mrec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	body := mrec.Body.String()
	for _, want := range []string{
		`lodify_http_requests_total{code="200",route="/api/search"}`,
		`lodify_http_request_seconds_count{route="/api/search"}`,
		"# TYPE lodify_http_requests_total counter",
		"# TYPE lodify_http_request_seconds histogram",
		`lodify_slo_attainment{slo="search"}`,
		`lodify_sparql_op_nanos_total{op="bgp"}`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, body)
		}
	}
	// The registry total moved by the search request (/metrics itself
	// is unwrapped so scraping does not pollute the series; other
	// tests share the default registry, hence "at least").
	if after := obs.Default.CounterValue("lodify_http_requests_total"); after < before+1 {
		t.Fatalf("http total %d -> %d, want +1 or more", before, after)
	}
}

// TestDebugVarsExposesRegistry asserts the expvar endpoint publishes
// the registry snapshot under the "lodify" key.
func TestDebugVarsExposesRegistry(t *testing.T) {
	s, _ := server(t)
	get(t, s, "/", map[string]string{"User-Agent": "Mozilla/5.0 (X11; Linux)"})
	rec := get(t, s, "/debug/vars", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("code = %d", rec.Code)
	}
	body := rec.Body.String()
	if !strings.Contains(body, `"lodify"`) || !strings.Contains(body, "lodify_http_requests_total") {
		t.Fatalf("expvar missing registry snapshot:\n%.500s", body)
	}
}

// TestTraceIDAdoption asserts an inbound X-Trace-Id is carried through
// the handler and echoed back verbatim.
func TestTraceIDAdoption(t *testing.T) {
	s, _ := server(t)
	rec := get(t, s, "/api/stats", map[string]string{obs.TraceHeader: "cafebabe00112233"})
	if rec.Code != http.StatusOK {
		t.Fatalf("code = %d", rec.Code)
	}
	if got := rec.Header().Get(obs.TraceHeader); got != "cafebabe00112233" {
		t.Fatalf("trace id = %q, want adoption of inbound id", got)
	}
}

package web

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"lodify/internal/obs"
)

// album3Join is a 3-join read in the §2.3 album shape against the
// test fixture (one published photo).
const album3Join = `PREFIX sioct: <http://rdfs.org/sioc/types#>
PREFIX comm: <http://comm.semanticweb.org/core.owl#>
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?pic ?link ?name WHERE {
  ?pic a sioct:MicroblogPost .
  ?pic comm:image-data ?link .
  ?pic foaf:maker ?user .
  ?user foaf:name ?name .
}`

func postJSON(u, body string) (*http.Request, *httptest.ResponseRecorder) {
	req := httptest.NewRequest(http.MethodPost, u, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	return req, httptest.NewRecorder()
}

func sparqlURL(params map[string]string) string {
	v := url.Values{}
	for k, val := range params {
		v.Set(k, val)
	}
	return "/sparql?" + v.Encode()
}

func TestExplainParamReturnsStaticPlan(t *testing.T) {
	s, _ := server(t)
	rec := get(t, s, sparqlURL(map[string]string{"query": album3Join, "explain": "1"}), nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("code = %d: %s", rec.Code, rec.Body.String())
	}
	var exp struct {
		Analyze bool            `json:"analyze"`
		Rows    int             `json:"rows"`
		Plan    json.RawMessage `json:"plan"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &exp); err != nil {
		t.Fatal(err)
	}
	if exp.Analyze || len(exp.Plan) == 0 {
		t.Fatalf("static explain wrong: %s", rec.Body.String())
	}
	if !strings.Contains(string(exp.Plan), `"estRows"`) {
		t.Fatalf("plan lacks estimates: %s", exp.Plan)
	}
}

func TestExplainAnalyzeMatchesPlainRowCount(t *testing.T) {
	s, _ := server(t)

	// Plain run first: count solutions from the SRJ document.
	rec := get(t, s, sparqlURL(map[string]string{"query": album3Join}), nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("plain code = %d: %s", rec.Code, rec.Body.String())
	}
	var srj struct {
		Results struct {
			Bindings []json.RawMessage `json:"bindings"`
		} `json:"results"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &srj); err != nil {
		t.Fatal(err)
	}
	if len(srj.Results.Bindings) == 0 {
		t.Fatal("fixture query is vacuous")
	}

	// The EXPLAIN ANALYZE prefix works as query sugar too.
	rec = get(t, s, sparqlURL(map[string]string{"query": "EXPLAIN ANALYZE " + album3Join}), nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("analyze code = %d: %s", rec.Code, rec.Body.String())
	}
	var exp struct {
		Analyze bool `json:"analyze"`
		Rows    int  `json:"rows"`
		Plan    struct {
			Op      string `json:"op"`
			RowsOut int64  `json:"rowsOut"`
		} `json:"plan"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &exp); err != nil {
		t.Fatal(err)
	}
	if !exp.Analyze || exp.Rows != len(srj.Results.Bindings) {
		t.Fatalf("analyze rows = %d, plain rows = %d (analyze=%v)", exp.Rows, len(srj.Results.Bindings), exp.Analyze)
	}
	if exp.Plan.RowsOut != int64(exp.Rows) {
		t.Fatalf("plan rows-out %d != rows %d", exp.Plan.RowsOut, exp.Rows)
	}

	// Accept: text/plain renders the indented tree instead of JSON.
	rec = get(t, s, sparqlURL(map[string]string{"query": album3Join, "explain": "analyze"}),
		map[string]string{"Accept": "text/plain"})
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "bgp") {
		t.Fatalf("text explain: code=%d body=%s", rec.Code, rec.Body.String())
	}
}

// TestStatsShapePinned pins the /api/stats document shape: the PR 5
// consumers rely on cities/store/pipeline, and the SLO addition must
// stay additive. One request per SLO-covered route goes first, so an
// objective that still reports zero events is watching a series its
// route no longer feeds.
func TestStatsShapePinned(t *testing.T) {
	s, _ := server(t)
	for _, u := range []string{"/feeds/keyword/torino", "/api/search?q=Mole", sparqlURL(map[string]string{"query": album3Join})} {
		if rec := get(t, s, u, nil); rec.Code != http.StatusOK {
			t.Fatalf("%s -> %d: %s", u, rec.Code, rec.Body.String())
		}
	}
	rec := get(t, s, "/api/stats", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("code = %d", rec.Code)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"cities", "store", "pipeline"} {
		if _, ok := doc[key]; !ok {
			t.Fatalf("stats lost pinned key %q: %s", key, rec.Body.String())
		}
	}
	var slo []obs.SLOStatus
	if err := json.Unmarshal(doc["slo"], &slo); err != nil {
		t.Fatalf("slo key: %v in %s", err, doc["slo"])
	}
	names := map[string]bool{}
	for _, st := range slo {
		names[st.Name] = true
		if len(st.Windows) == 0 {
			t.Fatalf("objective %s has no burn windows", st.Name)
		}
		if st.Unattainable {
			t.Fatalf("objective %s saw no events after a request to its route: %+v", st.Name, st)
		}
	}
	for _, want := range []string{"album-read", "search", "sparql", "http-errors"} {
		if !names[want] {
			t.Fatalf("objective %q missing from %v", want, names)
		}
	}
}

// TestConcurrentObservabilityExposition hammers every observability
// surface while queries and uploads run — the -race gate for the
// collector ring, slowlog ring, stats sink and SLO evaluator.
func TestConcurrentObservabilityExposition(t *testing.T) {
	prev := obs.SlowQueries.Threshold()
	obs.SlowQueries.SetThreshold(0) // capture everything: exercises profile marshalling
	defer obs.SlowQueries.SetThreshold(prev)

	s, _ := server(t)
	surfaces := []string{
		"/metrics", "/debug/vars", "/debug/trace/recent", "/debug/slowlog",
		"/debug/querystats", "/api/stats",
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				u := surfaces[(w+i)%len(surfaces)]
				if rec := get(t, s, u, nil); rec.Code != http.StatusOK {
					t.Errorf("%s -> %d", u, rec.Code)
					return
				}
			}
		}(w)
	}
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				q := album3Join
				if i%3 == 0 {
					q = "EXPLAIN ANALYZE " + q
				}
				if rec := get(t, s, sparqlURL(map[string]string{"query": q}), nil); rec.Code != http.StatusOK {
					t.Errorf("sparql -> %d: %s", rec.Code, rec.Body.String())
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			body := fmt.Sprintf(`{"user":"walter","filename":"c%d.jpg","title":"Torino evening %d","tags":["torino"]}`, i, i)
			req, rec := postJSON("/api/upload", body)
			s.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Errorf("upload -> %d: %s", rec.Code, rec.Body.String())
				return
			}
		}
	}()
	wg.Wait()
}

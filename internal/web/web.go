// Package web is the platform's HTTP layer: the desktop web interface
// and the mobile interface of §3-§4, including the AJAX incremental
// search (Figs. 2-3), the per-resource content listing (Fig. 4), the
// "About" linked-data mashup (§4.1's four-arm UNION query, executed
// verbatim against the engine), album feeds, an upload API and a raw
// SPARQL endpoint.
package web

import (
	"bytes"
	"encoding/json"
	"fmt"
	"html"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"time"

	"lodify/internal/album"
	"lodify/internal/feed"
	"lodify/internal/geo"
	"lodify/internal/obs"
	"lodify/internal/obs/stats"
	"lodify/internal/rdf"
	"lodify/internal/sparql"
	"lodify/internal/sparql/matview"
	"lodify/internal/store"
	"lodify/internal/ugc"
)

// Server wires the HTTP handlers over a platform.
type Server struct {
	Platform *ugc.Platform
	Engine   *sparql.Engine
	mux      *http.ServeMux
	// SearchLimit caps AJAX candidate lists (Fig. 3 shows a short
	// list).
	SearchLimit int
	// SnapshotPath, when non-empty, enables POST /admin/snapshot to
	// persist the triple store as N-Quads to that file.
	SnapshotPath string
	// SLO evaluates the server's service-level objectives; its burn
	// rates are exposed on /metrics and in /api/stats.
	SLO *obs.Evaluator
	// Views materializes album queries incrementally: the first read
	// of a keyword feed registers its SPARQL, later reads are
	// O(result) snapshots kept current by the store's commit stream.
	Views *matview.Registry
}

// NewServer builds the handler tree.
func NewServer(p *ugc.Platform) *Server {
	s := &Server{
		Platform:    p,
		Engine:      sparql.NewEngine(p.Store),
		mux:         http.NewServeMux(),
		SearchLimit: 10,
		Views:       matview.New(p.Store),
	}
	// Every route goes through the observability middleware: per-route
	// latency/status series plus trace-ID adoption and echo.
	handle := func(route string, h http.HandlerFunc) {
		s.mux.Handle(route, obs.Middleware(route, h))
	}
	handle("/", s.handleRoot)
	handle("/m", s.handleMobile)
	handle("/api/search", s.handleSearch)
	handle("/api/resource", s.handleResource)
	handle("/api/about", s.handleAbout)
	handle("/api/upload", s.handleUpload)
	handle("/feeds/keyword/", s.handleKeywordFeed)
	handle("/sparql", s.handleSPARQL)
	handle("/api/stats", s.handleStats)
	handle("/admin/snapshot", s.handleSnapshot)
	handle("/sparql-update", s.handleSPARQLUpdate)
	handle("/describe", s.handleDescribe)
	s.mux.Handle("/metrics", obs.MetricsHandler())
	s.mux.Handle("/debug/vars", obs.ExpvarHandler())
	// Observability surfaces (direct, like /metrics: these must stay
	// readable even when the instrumented routes are saturated).
	s.mux.Handle("/debug/slowlog", obs.SlowlogHandler())
	s.mux.Handle("/debug/trace/recent", obs.TraceRecentHandler())
	s.mux.Handle("/debug/querystats", stats.Handler())
	s.mux.Handle("/debug/matviews", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		vs := s.Views.Stats()
		writeJSON(w, map[string]any{"views": len(vs), "matviews": vs})
	}))
	// Bind the store-size gauges to this server's store so /metrics
	// reflects the live index sizes.
	p.Store.ExposeMetrics()

	// Service-level objectives over the middleware's series. Latency
	// thresholds align with histogram bucket bounds (CumulativeCount
	// counts whole buckets); the error-ratio objective reads the
	// label-free seen/errors counter pair. Scrapes of /metrics drive
	// the window sampling — no background goroutine.
	s.SLO = obs.NewEvaluator(nil,
		obs.LatencyObjective("album-read", "99% of album feed reads under 250ms",
			obs.H("lodify_http_request_seconds", "route", "/feeds/keyword/"), 0.25, 0.99),
		obs.LatencyObjective("search", "99% of AJAX searches under 50ms",
			obs.H("lodify_http_request_seconds", "route", "/api/search"), 0.05, 0.99),
		obs.LatencyObjective("sparql", "99% of SPARQL queries under 250ms",
			obs.H("lodify_http_request_seconds", "route", "/sparql"), 0.25, 0.99),
		obs.RatioObjective("http-errors", "99.9% of requests answered without a 5xx",
			obs.C("lodify_http_errors_total"), obs.C("lodify_http_requests_seen_total"), 0.999),
	)
	s.SLO.Expose(obs.Default)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Close releases the server's background resources (the view
// registry's commit hook and maintenance goroutine).
func (s *Server) Close() {
	if s.Views != nil {
		s.Views.Close()
	}
}

// isMobileUA applies the §3 behaviour: mobile browsers are redirected
// to the mobile interface (with ?full=1 to switch back).
func isMobileUA(ua string) bool {
	ua = strings.ToLower(ua)
	for _, marker := range []string{"mobile", "android", "iphone", "symbian", "blackberry", "windows phone", "opera mini"} {
		if strings.Contains(ua, marker) {
			return true
		}
	}
	return false
}

func (s *Server) handleRoot(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	if isMobileUA(r.UserAgent()) && r.URL.Query().Get("full") == "" {
		http.Redirect(w, r, "/m", http.StatusFound)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprintf(w, `<!doctype html><html><head><title>LODify</title></head>
<body>
<h1>LODify — personal content sharing</h1>
<p>%d contents, %d triples in the semantic store.</p>
<form action="/api/search"><input name="q" placeholder="search"><button>Search</button></form>
<p><a href="/m">mobile interface</a></p>
</body></html>`, len(s.Platform.Contents()), s.Platform.Store.Len())
}

func (s *Server) handleMobile(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	// The real page asks the browser's location API; the headless
	// equivalent takes lat/lon query parameters.
	lat, lon := r.URL.Query().Get("lat"), r.URL.Query().Get("lon")
	loc := "location unavailable"
	if lat != "" && lon != "" {
		loc = "your position: " + html.EscapeString(lat) + ", " + html.EscapeString(lon)
	}
	fmt.Fprintf(w, `<!doctype html><html><head><title>LODify mobile</title></head>
<body>
<p>%s</p>
<input id="q" placeholder="search"><ul id="candidates"></ul>
<script>
// 2 seconds after the last keystroke, query /api/search (Fig. 2).
var t; document.getElementById('q').addEventListener('input', function(e){
  clearTimeout(t);
  t = setTimeout(function(){ fetch('/api/search?q='+encodeURIComponent(e.target.value)); }, 2000);
});
</script>
<p><a href="/?full=1">switch to full interface</a></p>
</body></html>`, loc)
}

// SearchCandidate is one AJAX search result (Fig. 3's candidate list).
type SearchCandidate struct {
	Resource string   `json:"resource"`
	Label    string   `json:"label"`
	Types    []string `json:"types,omitempty"`
	Contents int      `json:"contents"`
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	q := strings.TrimSpace(r.URL.Query().Get("q"))
	if q == "" {
		writeJSON(w, []SearchCandidate{})
		return
	}
	var near *geo.Point
	if lat, lon := r.URL.Query().Get("lat"), r.URL.Query().Get("lon"); lat != "" && lon != "" {
		la, errLa := strconv.ParseFloat(lat, 64)
		lo, errLo := strconv.ParseFloat(lon, 64)
		if errLa == nil && errLo == nil {
			near = &geo.Point{Lon: lo, Lat: la}
		}
	}
	subjects := s.Platform.Store.TextPrefixSearch(q, 0)
	var out []SearchCandidate
	for _, subj := range subjects {
		if !subj.IsIRI() {
			continue
		}
		// Geographic filtering when the client shared its position.
		if near != nil {
			if pt, ok := s.Platform.Store.GeometryOf(subj); ok {
				if !geo.Intersects(pt, *near, 2.0) {
					continue
				}
			}
		}
		lbl := s.bestLabel(subj)
		if lbl == "" {
			continue
		}
		var types []string
		for _, ty := range s.Platform.Store.Objects(subj, ugc.PredType) {
			types = append(types, ty.Value())
		}
		// Count attached content so the UI can rank resources that
		// actually have something to show.
		items, _ := album.AboutResource(s.Platform.Store, subj).Items()
		out = append(out, SearchCandidate{
			Resource: subj.Value(),
			Label:    lbl,
			Types:    types,
			Contents: len(items),
		})
		if len(out) >= s.SearchLimit {
			break
		}
	}
	writeJSON(w, out)
}

func (s *Server) bestLabel(subj rdf.Term) string {
	labels := s.Platform.Store.Objects(subj, rdf.NewIRI(rdf.RDFSLabel))
	best := ""
	for _, l := range labels {
		if best == "" || l.Lang() == "en" {
			best = l.Value()
		}
	}
	if best == "" {
		if t := s.Platform.Store.FirstObject(subj, ugc.PredTitle); !t.IsZero() {
			best = t.Value()
		}
	}
	return best
}

// ResourceContent is one content item in a resource's listing
// (Fig. 4: thumbnail, description, link).
type ResourceContent struct {
	Resource  string `json:"resource"`
	MediaURL  string `json:"mediaUrl"`
	Thumbnail string `json:"thumbnail"`
	Title     string `json:"title,omitempty"`
}

func (s *Server) handleResource(w http.ResponseWriter, r *http.Request) {
	iri := r.URL.Query().Get("iri")
	if iri == "" {
		http.Error(w, "missing iri", http.StatusBadRequest)
		return
	}
	if rejectParam(w, "iri", iri) {
		return
	}
	a := album.AboutResource(s.Platform.Store, rdf.NewIRI(iri))
	items, err := a.Items()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	var out []ResourceContent
	for _, it := range items {
		rc := ResourceContent{Resource: it.Resource, MediaURL: it.MediaURL}
		if rc.MediaURL != "" {
			rc.Thumbnail = rc.MediaURL + "?thumb=1"
		}
		if t := s.Platform.Store.FirstObject(rdf.NewIRI(it.Resource), ugc.PredTitle); !t.IsZero() {
			rc.Title = t.Value()
		}
		out = append(out, rc)
	}
	writeJSON(w, out)
}

// AboutEntry is one row of the "About" mashup (§4.1).
type AboutEntry struct {
	Label    string `json:"label"`
	Type     string `json:"type"`
	Desc     string `json:"desc,omitempty"`
	Resource string `json:"resource"`
}

func (s *Server) handleAbout(w http.ResponseWriter, r *http.Request) {
	pid, err := strconv.ParseInt(r.URL.Query().Get("pid"), 10, 64)
	if err != nil {
		http.Error(w, "bad pid", http.StatusBadRequest)
		return
	}
	c, ok := s.Platform.Content(pid)
	if !ok {
		http.Error(w, "no such content", http.StatusNotFound)
		return
	}
	lang := r.URL.Query().Get("lang")
	if lang == "" {
		lang = "it" // the paper's query filters italian abstracts
	}
	if rejectParam(w, "lang", lang) {
		return
	}
	res, err := s.Engine.QueryCtx(r.Context(), AboutMashupQuery(c.IRI.Value(), lang))
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	var out []AboutEntry
	for _, sol := range res.Solutions {
		e := AboutEntry{}
		if t, ok := sol["lbl"]; ok {
			e.Label = t.Value()
		}
		if t, ok := sol["entType"]; ok {
			e.Type = t.Value()
		}
		if t, ok := sol["desc"]; ok {
			e.Desc = t.Value()
		}
		if t, ok := sol["others"]; ok {
			e.Resource = t.Value()
		}
		out = append(out, e)
	}
	writeJSON(w, out)
}

// AboutMashupQuery renders the §4.1 four-arm UNION query for a
// picture resource: the city and its (language-filtered) DBpedia
// abstract, nearby LinkedGeoData restaurants with websites, nearby
// tourism attractions and other UGC taken in the same location — each
// arm LIMIT 5, with the paper's distance precisions (1, 0.3, 1, 0.2).
func AboutMashupQuery(picIRI, lang string) string {
	return fmt.Sprintf(`
PREFIX dbpo: <http://dbpedia.org/ontology/>
PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
PREFIX lgdo: <http://linkedgeodata.org/ontology/>
PREFIX sioct: <http://rdfs.org/sioc/types#>
PREFIX comm: <http://comm.semanticweb.org/core.owl#>
PREFIX geo: <http://www.w3.org/2003/01/geo/wgs84_pos#>
SELECT DISTINCT ?lbl ?entType ?desc ?others WHERE {
  { SELECT DISTINCT ?lbl ?entType ?desc ?others WHERE {
      <%[1]s> geo:geometry ?locPID .
      ?city geo:geometry ?locCity .
      ?city a ?entType .
      ?city rdfs:label ?lbl .
      ?others rdfs:label ?lbl .
      ?others dbpo:abstract ?desc .
      ?others a dbpo:Place .
      FILTER (?entType in (lgdo:City)) .
      FILTER langMatches(lang(?desc), '%[2]s') .
      FILTER( bif:st_intersects( ?locPID, ?locCity, 1 ) ) .
    } LIMIT 5
  } UNION
  { SELECT DISTINCT ?lbl ?entType ?desc ?others WHERE {
      <%[1]s> geo:geometry ?locPID .
      ?others geo:geometry ?location .
      ?others a ?entType .
      ?others rdfs:label ?lbl .
      OPTIONAL { ?others <http://linkedgeodata.org/property/website> ?desc } .
      FILTER (?entType in (lgdo:Restaurant)) .
      FILTER( bif:st_intersects( ?locPID, ?location, 0.3 ) ) .
    } LIMIT 5
  } UNION
  { SELECT DISTINCT ?lbl ?entType ?desc ?others WHERE {
      <%[1]s> geo:geometry ?locPID .
      ?others geo:geometry ?location .
      ?others a ?entType .
      ?others rdfs:label ?lbl .
      OPTIONAL { ?others <http://linkedgeodata.org/property/website> ?desc } .
      FILTER (?entType in (lgdo:Tourism)) .
      FILTER( bif:st_intersects( ?locPID, ?location, 1 ) ) .
    } LIMIT 5
  } UNION
  { SELECT DISTINCT ?lbl ?entType ?desc ?others WHERE {
      <%[1]s> geo:geometry ?locPID .
      ?others geo:geometry ?location .
      ?others a ?entType .
      ?others <http://purl.org/dc/elements/1.1/title> ?lbl .
      ?others comm:image-data ?desc .
      FILTER (?entType in (sioct:MicroblogPost)) .
      FILTER( bif:st_intersects( ?locPID, ?location, 0.2 ) ) .
    } LIMIT 5
  }
}`, picIRI, lang)
}

// uploadRequest is the JSON shape of POST /api/upload.
type uploadRequest struct {
	User     string   `json:"user"`
	Filename string   `json:"filename"`
	Title    string   `json:"title"`
	Tags     []string `json:"tags"`
	Lat      *float64 `json:"lat"`
	Lon      *float64 `json:"lon"`
	TakenAt  string   `json:"takenAt"` // RFC3339
}

func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	var req uploadRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad JSON: "+err.Error(), http.StatusBadRequest)
		return
	}
	up := ugc.Upload{
		User: req.User, Filename: req.Filename, Title: req.Title, Tags: req.Tags,
		TakenAt: time.Now().UTC(),
	}
	if req.TakenAt != "" {
		t, err := time.Parse(time.RFC3339, req.TakenAt)
		if err != nil {
			http.Error(w, "bad takenAt: "+err.Error(), http.StatusBadRequest)
			return
		}
		up.TakenAt = t
	}
	if req.Lat != nil && req.Lon != nil {
		up.GPS = &geo.Point{Lon: *req.Lon, Lat: *req.Lat}
	}
	c, err := s.Platform.Publish(up)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, map[string]any{
		"id":       c.ID,
		"iri":      c.IRI.Value(),
		"mediaUrl": c.MediaURL,
		"language": c.Language,
	})
}

func (s *Server) handleKeywordFeed(w http.ResponseWriter, r *http.Request) {
	kw := strings.TrimPrefix(r.URL.Path, "/feeds/keyword/")
	if kw == "" {
		http.Error(w, "missing keyword", http.StatusBadRequest)
		return
	}
	a := album.ByKeywordSemantic(s.Platform.Store, kw)
	if s.Views != nil {
		// First read registers the album's query as a materialized
		// view; from then on the feed is an O(result) snapshot.
		// Registration failure (registry full) degrades to per-request
		// evaluation.
		name := "keyword:" + kw
		v, ok := s.Views.Get(name)
		if !ok {
			if reg, err := s.Views.Register(name, a.Query); err == nil {
				v, ok = reg, true
			}
		}
		if ok {
			a.View = v
		}
	}
	f, err := feed.FromAlbum(a, r.URL.String(), time.Now().UTC())
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if r.URL.Query().Get("format") == "atom" {
		w.Header().Set("Content-Type", "application/atom+xml")
		f.WriteAtom(w)
		return
	}
	w.Header().Set("Content-Type", "application/rss+xml")
	f.WriteRSS(w)
}

func (s *Server) handleSPARQL(w http.ResponseWriter, r *http.Request) {
	query := r.URL.Query().Get("query")
	if query == "" && r.Method == http.MethodPost {
		var body struct {
			Query string `json:"query"`
		}
		if err := json.NewDecoder(r.Body).Decode(&body); err == nil {
			query = body.Query
		}
	}
	if query == "" {
		http.Error(w, "missing query", http.StatusBadRequest)
		return
	}
	// EXPLAIN / EXPLAIN ANALYZE: requested by the explain query
	// parameter ("1"/"true" = plan only, "analyze" = execute and
	// profile) or an EXPLAIN [ANALYZE] prefix on the query text. The
	// response format follows Accept: text/plain renders the indented
	// plan tree, anything else the JSON explanation document.
	query, explain, analyze := sparql.StripExplain(query)
	switch strings.ToLower(r.URL.Query().Get("explain")) {
	case "analyze":
		explain, analyze = true, true
	case "1", "true", "plan":
		explain = true
	}
	if explain {
		exp, err := s.Engine.Explain(r.Context(), query, analyze)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if strings.Contains(r.Header.Get("Accept"), "text/plain") {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprintf(w, "query: %s\n%s", exp.Query, exp.Plan.Text())
			return
		}
		writeJSON(w, exp)
		return
	}
	res, err := s.Engine.QueryCtx(r.Context(), query)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// SPARQL JSON results (SELECT/ASK subset).
	type binding map[string]map[string]string
	out := struct {
		Head    map[string][]string `json:"head"`
		Boolean *bool               `json:"boolean,omitempty"`
		Results *struct {
			Bindings []binding `json:"bindings"`
		} `json:"results,omitempty"`
	}{Head: map[string][]string{"vars": res.Vars}}
	if res.Form == sparql.FormAsk {
		out.Boolean = &res.Bool
	} else {
		rs := &struct {
			Bindings []binding `json:"bindings"`
		}{}
		for _, sol := range res.Solutions {
			b := binding{}
			for v, t := range sol {
				entry := map[string]string{"value": t.Value()}
				switch {
				case t.IsIRI():
					entry["type"] = "uri"
				case t.IsBlank():
					entry["type"] = "bnode"
				default:
					entry["type"] = "literal"
					if t.Lang() != "" {
						entry["xml:lang"] = t.Lang()
					}
				}
				b[v] = entry
			}
			rs.Bindings = append(rs.Bindings, b)
		}
		out.Results = rs
	}
	writeJSON(w, out)
}

// StatsRow is one row of the platform statistics.
type StatsRow struct {
	City string `json:"city"`
	N    int64  `json:"contents"`
	Avg  string `json:"avgRating,omitempty"`
}

// StatsResponse is the /api/stats payload: the per-city content
// aggregation plus live store index sizes and pipeline counters from
// the observability registry.
type StatsResponse struct {
	Cities   []StatsRow    `json:"cities"`
	Store    store.Stats   `json:"store"`
	Pipeline PipelineStats `json:"pipeline"`
	// SLO is additive (clients keyed on cities/store/pipeline are
	// unaffected): the current objective attainments and burn rates.
	SLO []obs.SLOStatus `json:"slo,omitempty"`
}

// PipelineStats surfaces the ingest/query counters most useful on a
// dashboard; the full series live at /metrics.
type PipelineStats struct {
	Published        int64 `json:"published"`
	AnnotateRuns     int64 `json:"annotateRuns"`
	Candidates       int64 `json:"candidates"`
	ResolverRequests int64 `json:"resolverRequests"`
	SparqlQueries    int64 `json:"sparqlQueries"`
	HTTPRequests     int64 `json:"httpRequests"`
}

// handleStats aggregates contents per city via the SPARQL engine's
// GROUP BY support (contents link cities through dcterms:spatial) and
// attaches the store/pipeline gauges.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	res, err := s.Engine.QueryCtx(r.Context(), `
PREFIX sioct: <http://rdfs.org/sioc/types#>
PREFIX dcterms: <http://purl.org/dc/terms/>
PREFIX gn: <http://www.geonames.org/ontology#>
PREFIX rev: <http://purl.org/stuff/rev#>
SELECT ?city (COUNT(?pic) AS ?n) WHERE {
  ?pic a sioct:MicroblogPost .
  ?pic dcterms:spatial ?place .
  ?place gn:name ?city .
} GROUP BY ?city ORDER BY DESC(?n) ?city`)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	out := StatsResponse{Cities: []StatsRow{}}
	for _, sol := range res.Solutions {
		row := StatsRow{City: sol["city"].Value()}
		fmt.Sscanf(sol["n"].Value(), "%d", &row.N)
		out.Cities = append(out.Cities, row)
	}
	out.Store = s.Platform.Store.StatsSnapshot()
	if s.SLO != nil {
		out.SLO = s.SLO.Status(time.Now())
	}
	out.Pipeline = PipelineStats{
		Published:        obs.Default.CounterValue("lodify_ugc_published_total"),
		AnnotateRuns:     obs.Default.CounterValue("lodify_annotate_runs_total"),
		Candidates:       obs.Default.CounterValue("lodify_annotate_candidates_total"),
		ResolverRequests: obs.Default.CounterValue("lodify_resolver_requests_total"),
		SparqlQueries:    obs.Default.CounterValue("lodify_sparql_queries_total"),
		HTTPRequests:     obs.Default.CounterValue("lodify_http_requests_total"),
	}
	writeJSON(w, out)
}

// handleSnapshot persists the triple store (POST; requires a
// configured SnapshotPath).
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	if s.SnapshotPath == "" {
		http.Error(w, "snapshots not configured", http.StatusNotImplemented)
		return
	}
	if err := s.Platform.Store.SaveFile(s.SnapshotPath); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, map[string]any{"saved": s.SnapshotPath, "quads": s.Platform.Store.Len()})
}

// handleSPARQLUpdate executes a SPARQL Update request (POST body or
// ?update= parameter). Writes are administrative: the paper's
// platform mutates via its own ingestion APIs, but the endpoint makes
// the triple store operable like the Virtuoso instance it replaces.
func (s *Server) handleSPARQLUpdate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	update := r.URL.Query().Get("update")
	if update == "" {
		body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		update = string(body)
	}
	if strings.TrimSpace(update) == "" {
		http.Error(w, "missing update", http.StatusBadRequest)
		return
	}
	res, err := s.Engine.Update(update)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, map[string]int{"inserted": res.Inserted, "deleted": res.Deleted})
}

// handleDescribe dereferences a resource as Linked Data: the concise
// bounded description in Turtle (default) or N-Triples (?format=nt).
// This is the "Linked Data functionalities running locally" of §2.1.
func (s *Server) handleDescribe(w http.ResponseWriter, r *http.Request) {
	iri := r.URL.Query().Get("iri")
	if iri == "" {
		http.Error(w, "missing iri", http.StatusBadRequest)
		return
	}
	if rejectParam(w, "iri", iri) {
		return
	}
	res, err := s.Engine.QueryCtx(r.Context(), "DESCRIBE <"+iri+">")
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if len(res.Triples) == 0 {
		http.Error(w, "no such resource", http.StatusNotFound)
		return
	}
	if r.URL.Query().Get("format") == "nt" {
		w.Header().Set("Content-Type", "application/n-triples")
		rdf.WriteNTriples(w, res.Triples)
		return
	}
	w.Header().Set("Content-Type", "text/turtle")
	rdf.WriteTurtle(w, res.Triples, rdf.CommonPrefixes())
}

// langTag is the shape of a language tag langMatches can be given.
var langTag = regexp.MustCompile(`^[A-Za-z]{1,8}(-[A-Za-z0-9]{1,8})*$`)

// rejectParam answers 400 and reports true when a request parameter
// that a handler splices into SPARQL text would end its token early:
// an "iri" must fit the IRIREF production (no byte <= 0x20, none of
// <>"{}|^`\), since the lexer ends <...> at the first '>', and a
// "lang" must be a language tag, since it sits inside '...'. Handlers
// call it before any query text is built.
func rejectParam(w http.ResponseWriter, name, value string) bool {
	ok := false
	switch name {
	case "iri":
		ok = strings.IndexFunc(value, func(r rune) bool {
			return r <= 0x20 || strings.ContainsRune("<>\"{}|^`\\", r)
		}) < 0
	case "lang":
		ok = langTag.MatchString(value)
	}
	if !ok {
		http.Error(w, "bad "+name, http.StatusBadRequest)
	}
	return !ok
}

// writeJSON encodes v into a buffer first so an encoding failure can
// still produce a 500 (and a log line) instead of a silently truncated
// 200 response.
func writeJSON(w http.ResponseWriter, v any) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		obs.Logger().Error("writeJSON: encode failed", "err", err)
		http.Error(w, "response encoding failed", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(buf.Bytes()); err != nil {
		obs.Logger().Warn("writeJSON: write failed", "err", err)
	}
}

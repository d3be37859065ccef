package web

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"lodify/internal/annotate"
	"lodify/internal/ctxmgr"
	"lodify/internal/geo"
	"lodify/internal/lod"
	"lodify/internal/obs"
	"lodify/internal/resolver"
	"lodify/internal/ugc"
)

var (
	molePt = geo.Point{Lon: 7.6934, Lat: 45.0690}
	now    = time.Date(2011, 9, 17, 18, 0, 0, 0, time.UTC)
)

func server(t testing.TB) (*Server, *ugc.Platform) {
	w := lod.Generate(lod.DefaultConfig())
	ctx := ctxmgr.New(w)
	pipe := annotate.NewPipeline(w.Store, resolver.DefaultBroker(w.Store), annotate.DefaultConfig())
	p := ugc.New(w.Store, ctx, pipe, ugc.Options{})
	p.Register("walter", "Walter Goix", "")
	p.Register("oscar", "Oscar R", "")
	p.AddFriend("walter", "oscar")
	_, err := p.Publish(ugc.Upload{
		User: "walter", Filename: "mole.jpg",
		Title: "Tramonto sulla Mole Antonelliana",
		Tags:  []string{"torino"}, GPS: &molePt, TakenAt: now,
	})
	if err != nil {
		t.Fatal(err)
	}
	return NewServer(p), p
}

func get(t testing.TB, s *Server, url string, hdr map[string]string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, url, nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func TestMobileRedirect(t *testing.T) {
	s, _ := server(t)
	rec := get(t, s, "/", map[string]string{"User-Agent": "Mozilla/5.0 (iPhone; Mobile)"})
	if rec.Code != http.StatusFound || rec.Header().Get("Location") != "/m" {
		t.Fatalf("code=%d location=%q", rec.Code, rec.Header().Get("Location"))
	}
	// Desktop stays; mobile with full=1 stays too ("possibility to
	// switch back to the normal web interface").
	if rec := get(t, s, "/", map[string]string{"User-Agent": "Mozilla/5.0 (X11; Linux)"}); rec.Code != 200 {
		t.Fatalf("desktop code = %d", rec.Code)
	}
	if rec := get(t, s, "/?full=1", map[string]string{"User-Agent": "Mobile"}); rec.Code != 200 {
		t.Fatalf("full=1 code = %d", rec.Code)
	}
}

func TestMobilePageShowsLocationAndDebounce(t *testing.T) {
	s, _ := server(t)
	rec := get(t, s, "/m?lat=45.07&lon=7.69", nil)
	body := rec.Body.String()
	if !strings.Contains(body, "45.07") {
		t.Fatal("location not rendered")
	}
	// The Fig. 2 contract: query 2 seconds after the last keystroke.
	if !strings.Contains(body, "2000") {
		t.Fatal("2s debounce missing")
	}
}

func TestIncrementalSearchTurin(t *testing.T) {
	// Fig. 3: candidates listed for "Turin".
	s, _ := server(t)
	rec := get(t, s, "/api/search?q=Turi", nil)
	if rec.Code != 200 {
		t.Fatalf("code = %d", rec.Code)
	}
	var cands []SearchCandidate
	if err := json.Unmarshal(rec.Body.Bytes(), &cands); err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 {
		t.Fatal("no candidates for Turi")
	}
	found := false
	for _, c := range cands {
		if strings.Contains(c.Label, "Turin") || strings.Contains(c.Label, "Torino") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no Turin candidate: %+v", cands)
	}
}

func TestSearchGeoFilter(t *testing.T) {
	s, _ := server(t)
	// Searching "Colosseum" while located in Turin filters it out
	// (geographic filtering of results, §4).
	rec := get(t, s, "/api/search?q=Colosseum&lat=45.07&lon=7.69", nil)
	var cands []SearchCandidate
	json.Unmarshal(rec.Body.Bytes(), &cands)
	for _, c := range cands {
		if strings.Contains(c.Label, "Colosseum") {
			t.Fatalf("Colosseum shown in Turin: %+v", cands)
		}
	}
	// Located in Rome it appears.
	rec = get(t, s, "/api/search?q=Colosseum&lat=41.90&lon=12.49", nil)
	cands = nil
	json.Unmarshal(rec.Body.Bytes(), &cands)
	if len(cands) == 0 {
		t.Fatal("Colosseum missing in Rome")
	}
}

func TestSearchEmptyQuery(t *testing.T) {
	s, _ := server(t)
	rec := get(t, s, "/api/search?q=", nil)
	var cands []SearchCandidate
	if err := json.Unmarshal(rec.Body.Bytes(), &cands); err != nil || len(cands) != 0 {
		t.Fatalf("empty query: %v %v", cands, err)
	}
}

func TestResourceListing(t *testing.T) {
	s, _ := server(t)
	mole := lod.DBpediaResource + "Mole_Antonelliana"
	rec := get(t, s, "/api/resource?iri="+mole, nil)
	var items []ResourceContent
	if err := json.Unmarshal(rec.Body.Bytes(), &items); err != nil {
		t.Fatal(err)
	}
	if len(items) != 1 {
		t.Fatalf("items = %+v", items)
	}
	if items[0].Thumbnail == "" || !strings.Contains(items[0].Thumbnail, "thumb=1") {
		t.Fatalf("thumbnail = %q", items[0].Thumbnail)
	}
	if items[0].Title != "Tramonto sulla Mole Antonelliana" {
		t.Fatalf("title = %q", items[0].Title)
	}
	if rec := get(t, s, "/api/resource", nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("missing iri code = %d", rec.Code)
	}
}

// TestHostileIRIAndLangRejected holds the three routes that splice a
// request parameter into SPARQL text to the input check: a value that
// would end the <...> or '...' token early ("x> <y" describes two
// resources) is a 400 and no query runs, while ordinary values still
// pass through.
func TestHostileIRIAndLangRejected(t *testing.T) {
	s, _ := server(t)
	hostileIRIs := []string{
		"x> <y", "http://ex.org/a b", "http://ex.org/a\nb", "http://ex.org/\x00",
		`http://ex.org/"q`, "http://ex.org/{a}", "http://ex.org/a|b", "http://ex.org/a^b",
		"http://ex.org/a`b", `http://ex.org/a\b`, "<http://ex.org/a>",
	}
	hostileLangs := []string{
		"it') . ?s ?p ?o . FILTER ('a' = 'a", "it'", "en US", "en_US", "-en", "en-",
		"abcdefghi", "é", "1a",
	}
	var cases []string
	for _, iri := range hostileIRIs {
		cases = append(cases,
			"/api/resource?iri="+url.QueryEscape(iri),
			"/describe?iri="+url.QueryEscape(iri))
	}
	for _, lang := range hostileLangs {
		cases = append(cases, "/api/about?pid=1&lang="+url.QueryEscape(lang))
	}
	queries := func() int64 { return obs.Default.CounterValue("lodify_sparql_queries_total") }
	for _, u := range cases {
		before := queries()
		rec := get(t, s, u, nil)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: code = %d, want 400 (body %q)", u, rec.Code, rec.Body.String())
		}
		if ran := queries() - before; ran != 0 {
			t.Errorf("%s: %d queries reached the engine", u, ran)
		}
	}

	// The check is no stricter than IRIREF and language tags.
	mole := lod.DBpediaResource + "Mole_Antonelliana"
	for u, want := range map[string]int{
		"/api/resource?iri=" + url.QueryEscape(mole):                              http.StatusOK,
		"/api/resource?iri=" + url.QueryEscape("http://ex.org/caffè#a%20b?c=d&e"): http.StatusOK,
		"/describe?iri=" + url.QueryEscape(mole):                                  http.StatusOK,
		"/describe?iri=" + url.QueryEscape("urn:x:nobody"):                        http.StatusNotFound,
		"/api/about?pid=1":                 http.StatusOK,
		"/api/about?pid=1&lang=en":         http.StatusOK,
		"/api/about?pid=1&lang=en-GB":      http.StatusOK,
		"/api/about?pid=1&lang=zh-Hant-TW": http.StatusOK,
	} {
		if rec := get(t, s, u, nil); rec.Code != want {
			t.Errorf("%s: code = %d, want %d (body %q)", u, rec.Code, want, rec.Body.String())
		}
	}
}

func TestAboutMashupFourArms(t *testing.T) {
	s, p := server(t)
	// Add a second content near the first so the UGC arm has a row.
	p.Publish(ugc.Upload{
		User: "oscar", Filename: "mole2.jpg", Title: "Mole di giorno",
		GPS: &geo.Point{Lon: 7.6940, Lat: 45.0692}, TakenAt: now,
	})
	rec := get(t, s, "/api/about?pid=1", nil)
	if rec.Code != 200 {
		t.Fatalf("code = %d: %s", rec.Code, rec.Body.String())
	}
	var entries []AboutEntry
	if err := json.Unmarshal(rec.Body.Bytes(), &entries); err != nil {
		t.Fatal(err)
	}
	byType := map[string]int{}
	for _, e := range entries {
		switch {
		case strings.HasSuffix(e.Type, "City"):
			byType["city"]++
			if e.Desc == "" || !strings.Contains(e.Desc, "città") {
				t.Errorf("city abstract not italian: %+v", e)
			}
		case strings.HasSuffix(e.Type, "Restaurant"):
			byType["restaurant"]++
		case strings.HasSuffix(e.Type, "Tourism"):
			byType["tourism"]++
		case strings.HasSuffix(e.Type, "MicroblogPost"):
			byType["ugc"]++
		}
	}
	if byType["city"] == 0 {
		t.Errorf("city arm empty: %+v", entries)
	}
	if byType["restaurant"] == 0 || byType["restaurant"] > 5 {
		t.Errorf("restaurant arm = %d", byType["restaurant"])
	}
	if byType["tourism"] == 0 || byType["tourism"] > 5 {
		t.Errorf("tourism arm = %d", byType["tourism"])
	}
	if byType["ugc"] == 0 {
		t.Errorf("UGC arm empty: %+v", entries)
	}
	if rec := get(t, s, "/api/about?pid=999", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown pid code = %d", rec.Code)
	}
	if rec := get(t, s, "/api/about?pid=abc", nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad pid code = %d", rec.Code)
	}
}

func TestUploadAPI(t *testing.T) {
	s, p := server(t)
	body := `{"user":"oscar","filename":"new.jpg","title":"Colosseo di notte","tags":["roma"],"lat":41.8902,"lon":12.4922,"takenAt":"2011-09-17T20:00:00Z"}`
	req := httptest.NewRequest(http.MethodPost, "/api/upload", strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("code = %d: %s", rec.Code, rec.Body.String())
	}
	var resp map[string]any
	json.Unmarshal(rec.Body.Bytes(), &resp)
	if resp["language"] != "it" {
		t.Fatalf("resp = %v", resp)
	}
	if len(p.Contents()) != 2 {
		t.Fatal("content not published")
	}
	// Validation paths.
	if rec := get(t, s, "/api/upload", nil); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET upload code = %d", rec.Code)
	}
	req = httptest.NewRequest(http.MethodPost, "/api/upload", strings.NewReader("{bad"))
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad json code = %d", rec.Code)
	}
	req = httptest.NewRequest(http.MethodPost, "/api/upload", strings.NewReader(`{"user":"ghost","filename":"x.jpg"}`))
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("unknown user code = %d", rec.Code)
	}
}

func TestKeywordFeed(t *testing.T) {
	s, _ := server(t)
	defer s.Close()
	rec := get(t, s, "/feeds/keyword/torino", nil)
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "<rss") {
		t.Fatalf("rss: %d %s", rec.Code, rec.Body.String()[:min(200, rec.Body.Len())])
	}
	rec = get(t, s, "/feeds/keyword/torino?format=atom", nil)
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "<feed") {
		t.Fatalf("atom: %d", rec.Code)
	}
	// The first read registered the album query as a materialized
	// view; later reads serve from it, and new matching content shows
	// up after maintenance catches up.
	if _, ok := s.Views.Get("keyword:torino"); !ok {
		t.Fatal("keyword feed did not register a materialized view")
	}
	before := rec.Body.String()
	if _, err := s.Platform.Publish(ugc.Upload{
		User: "oscar", Filename: "mole2.jpg",
		Title: "Another torino Mole shot",
		Tags:  []string{"torino"}, GPS: &molePt, TakenAt: now,
	}); err != nil {
		t.Fatal(err)
	}
	s.Views.Sync()
	rec = get(t, s, "/feeds/keyword/torino", nil)
	if rec.Code != 200 {
		t.Fatalf("post-ingest feed code = %d", rec.Code)
	}
	if rec.Body.String() == before {
		t.Fatal("materialized feed did not pick up newly published content")
	}
	// The registry introspection endpoint reports the view.
	rec = get(t, s, "/debug/matviews", nil)
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "keyword:torino") {
		t.Fatalf("/debug/matviews: %d %s", rec.Code, rec.Body.String())
	}
}

func TestSPARQLEndpoint(t *testing.T) {
	s, _ := server(t)
	q := "SELECT ?s WHERE { ?s a <http://rdfs.org/sioc/types%23MicroblogPost> } LIMIT 1"
	_ = q
	rec := get(t, s, "/sparql?query="+
		"PREFIX%20sioct%3A%20%3Chttp%3A%2F%2Frdfs.org%2Fsioc%2Ftypes%23%3E%20"+
		"SELECT%20%3Fs%20WHERE%20%7B%20%3Fs%20a%20sioct%3AMicroblogPost%20%7D", nil)
	if rec.Code != 200 {
		t.Fatalf("code = %d: %s", rec.Code, rec.Body.String())
	}
	var out struct {
		Head    map[string][]string
		Results struct {
			Bindings []map[string]map[string]string
		}
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results.Bindings) != 1 {
		t.Fatalf("bindings = %+v", out.Results.Bindings)
	}
	if out.Results.Bindings[0]["s"]["type"] != "uri" {
		t.Fatalf("binding = %+v", out.Results.Bindings[0])
	}
	// ASK form.
	rec = get(t, s, "/sparql?query=ASK%20%7B%20%3Fs%20%3Fp%20%3Fo%20%7D", nil)
	if !strings.Contains(rec.Body.String(), `"boolean":true`) {
		t.Fatalf("ask = %s", rec.Body.String())
	}
	// Errors.
	if rec := get(t, s, "/sparql", nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("missing query code = %d", rec.Code)
	}
	if rec := get(t, s, "/sparql?query=garbage", nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad query code = %d", rec.Code)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

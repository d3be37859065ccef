package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lodify/internal/album"
	"lodify/internal/annotate"
	"lodify/internal/ctxmgr"
	"lodify/internal/feed"
	"lodify/internal/geo"
	"lodify/internal/langdetect"
	"lodify/internal/lod"
	"lodify/internal/obs"
	"lodify/internal/rdf"
	"lodify/internal/resolver"
	"lodify/internal/social"
	"lodify/internal/sparql"
	"lodify/internal/store"
	"lodify/internal/ugc"
	"lodify/internal/web"
	"lodify/internal/workload"
)

// slowQueryDefault is cmd/lodify's -slow-query default. With the log
// armed the engine profiles every plan, so the replay must arm it too
// or it would time a cheaper executor than the one that serves.
const slowQueryDefault = 500 * time.Millisecond

// explainEvery samples the plan/analyze passes: each costs as much as
// running the query again.
const explainEvery = 4

// span is one timed call into a layer. Spans live in memory until the
// replay ends and are then written out in one file.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"startNs"`
	EndNs   int64  `json:"endNs"`
	Parent  int    `json:"parent"` // index in the file's span list; -1 for a root
	Trace   int    `json:"trace"`  // index of the request in the replayed sequence; -1 outside it
}

// tracer records the spans of one goroutine.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
	trace int
	// queries are the SPARQL texts the current request's mirror ran.
	queries []string
	// Sums over the sampled EXPLAIN ANALYZE trees.
	analyzed                     int
	bgpNs, nonBGPNs, leaseWaitNs int64
}

func newTracer(t0 time.Time) *tracer { return &tracer{t0: t0, trace: -1} }

// do times fn as a span under the innermost open span.
func (t *tracer) do(name string, fn func()) {
	parent := -1
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Parent: parent, Trace: t.trace})
	t.stack = append(t.stack, id)
	t.spans[id].StartNs = int64(time.Since(t.t0))
	fn()
	t.spans[id].EndNs = int64(time.Since(t.t0))
	t.stack = t.stack[:len(t.stack)-1]
}

// merge appends o's spans, keeping parent links valid.
func (t *tracer) merge(o *tracer) {
	base := len(t.spans)
	for _, s := range o.spans {
		if s.Parent >= 0 {
			s.Parent += base
		}
		t.spans = append(t.spans, s)
	}
	t.analyzed += o.analyzed
	t.bgpNs += o.bgpNs
	t.nonBGPNs += o.nonBGPNs
	t.leaseWaitNs += o.leaseWaitNs
}

// spanTotal is the count and summed duration of the spans of one name.
type spanTotal struct {
	n     int
	durNs int64
}

func (t *tracer) totals() map[string]*spanTotal {
	out := map[string]*spanTotal{}
	for _, s := range t.spans {
		st := out[s.Name]
		if st == nil {
			st = &spanTotal{}
			out[s.Name] = st
		}
		st.n++
		st.durNs += s.EndNs - s.StartNs
	}
	return out
}

// inproc is a platform wired exactly like cmd/lodify/main.go.
type inproc struct {
	platform *ugc.Platform
	srv      *web.Server
	pipe     *annotate.Pipeline
	broker   *resolver.Broker
	detector *langdetect.Detector
}

func newInproc(t *tracer, contents int) (*inproc, error) {
	obs.SlowQueries.SetThreshold(slowQueryDefault)
	var world *lod.World
	t.do("lod.generate", func() { world = lod.Generate(lod.DefaultConfig()) })
	broker := resolver.DefaultBroker(world.Store)
	pipe := annotate.NewPipeline(world.Store, broker, annotate.DefaultConfig())
	platform := ugc.New(world.Store, ctxmgr.New(world), pipe, ugc.Options{})
	for _, n := range social.DefaultNetworks() {
		platform.AddCrossPoster(n)
	}
	var err error
	t.do("workload.generate", func() {
		_, err = workload.Generate(platform, world, workload.Spec{
			Users: serverUsers, Contents: contents, FriendsPerUser: 4, RatedFraction: 0.7, Seed: serverSeed,
		})
	})
	if err != nil {
		return nil, fmt.Errorf("workload.Generate: %w", err)
	}
	return &inproc{platform: platform, srv: web.NewServer(platform), pipe: pipe, broker: broker, detector: langdetect.New()}, nil
}

// serve answers one request in-process, without a socket.
func (p *inproc) serve(o *op) sample {
	start := time.Now()
	req := httptest.NewRequest(o.Method, o.URL, strings.NewReader(o.Body))
	rec := httptest.NewRecorder()
	p.srv.ServeHTTP(rec, req)
	body := rec.Body.Bytes()
	return sample{ns: int64(time.Since(start)), status: rec.Code, bytes: len(body), rows: bytes.Count(body, []byte(o.Marker))}
}

// serveAll answers a sequence in-process from one goroutine per tracer,
// the way drive does over HTTP.
func serveAll(seq *sequence, tracers []*tracer, each func(t *tracer, idx int) sample) []sample {
	samples := make([]sample, len(seq.ops))
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for _, t := range tracers {
		wg.Add(1)
		go func(t *tracer) {
			defer wg.Done()
			for {
				a := int(cursor.Add(1)) - 1
				if a >= seq.actions() {
					return
				}
				for i := range seq.action(a) {
					idx := seq.start[a] + i
					samples[idx] = each(t, idx)
				}
			}
		}(t)
	}
	wg.Wait()
	return samples
}

// replayResult is what the traced replay hands back.
type replayResult struct {
	samples  []sample // in-process ServeHTTP outcome per replayed request
	metrics  map[string]value
	spans    []span
	coverage float64 // sum of replay.* over sum of the web.* spans they mirror
	problems []string
}

// replay builds the platform, brings it to the state the served run
// measured from and replays seq against it, one span per call into a
// layer. The server it mirrors must not be running: the two would
// share the cores.
func replay(c *corpus, p *plan, seq *sequence) (*replayResult, error) {
	t0 := time.Now()
	root := newTracer(t0)
	in, err := newInproc(root, c.contents)
	if err != nil {
		return nil, err
	}
	defer in.srv.Close()
	st := in.platform.Store
	res := &replayResult{metrics: map[string]value{}}
	ms := func(name string, v float64) { res.metrics[name] = value{v, unitOf(replayed, name)} }

	// Bulk paths, on the store as it is after boot.
	var dump bytes.Buffer
	root.do("store.dump", func() { err = st.DumpNQuads(&dump) })
	if err != nil {
		return nil, fmt.Errorf("DumpNQuads: %w", err)
	}
	text := dump.String()
	var quads []rdf.Quad
	root.do("rdf.parse_nquads", func() { quads, err = rdf.ParseNQuads(text) })
	if err != nil {
		return nil, fmt.Errorf("ParseNQuads: %w", err)
	}
	loaded := 0
	root.do("store.load", func() { loaded, err = store.New().LoadNQuads(strings.NewReader(text)) })
	if err != nil {
		return nil, fmt.Errorf("LoadNQuads: %w", err)
	}
	if loaded != len(quads) || loaded != st.Len() {
		res.problems = append(res.problems, fmt.Sprintf("snapshot round trip: dumped %d quads, parsed %d, loaded %d", st.Len(), len(quads), loaded))
	}

	// The served run's warm-up: register every keyword view, then the
	// warm-up actions, untraced.
	for _, kw := range c.keywords {
		root.do("matview.register", func() {
			_, err = in.srv.Views.Register("keyword:"+kw, album.ByKeywordSemantic(st, kw).Query)
		})
		if err != nil {
			return nil, fmt.Errorf("register view %q: %w", kw, err)
		}
	}
	tracers := make([]*tracer, clients)
	for i := range tracers {
		tracers[i] = newTracer(t0)
	}
	serveAll(p.warmup, tracers, func(_ *tracer, idx int) sample { return in.serve(&p.warmup.ops[idx]) })
	in.srv.Views.Sync()

	rp := &replayer{in: in, ctx: obs.WithTraceID(context.Background(), "bench-replay")}
	runtime.GC()
	heap := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/live:bytes"}}
	metrics.Read(heap)
	alloc0 := heap[0].Value.Uint64()
	var gc0 debug.GCStats
	debug.ReadGCStats(&gc0)
	res.samples = serveAll(seq, tracers, func(t *tracer, idx int) sample { return rp.request(t, seq, idx) })
	var gc1 debug.GCStats
	debug.ReadGCStats(&gc1)
	metrics.Read(heap)
	n := float64(len(seq.ops))
	ms("go.alloc_kb_per_op", float64(heap[0].Value.Uint64()-alloc0)/1024/n)
	ms("go.gc_pause_us_per_op", float64(gc1.PauseTotal-gc0.PauseTotal)/1e3/n)
	ms("go.heap_live_mb", float64(heap[1].Value.Uint64())/(1<<20))

	// HTTP overhead, one client: the same requests in-process and over
	// a loopback socket. Last, because replayed uploads publish again.
	ts := httptest.NewServer(in.srv)
	client := &http.Client{Timeout: requestTimeout}
	var buf bytes.Buffer
	for i := 0; i < len(seq.ops) && i < 100; i++ {
		o := &seq.ops[i]
		root.do("overhead.inproc", func() { in.serve(o) })
		root.do("overhead.loopback", func() { send(client, ts.URL, o, &buf) })
	}
	ts.Close()

	for _, t := range tracers {
		root.merge(t)
	}
	if err := rp.firstErr(); err != nil {
		res.problems = append(res.problems, "replay: "+err.Error())
	}
	res.spans = root.spans
	tot := root.totals()
	mean := func(name string) float64 {
		if s := tot[name]; s != nil {
			return float64(s.durNs) / float64(s.n) / 1e6
		}
		return 0
	}
	var webNs, webN, mirroredNs, replayNs int64
	for name, s := range tot {
		if route, ok := strings.CutPrefix(name, "web."); ok {
			webNs, webN = webNs+s.durNs, webN+int64(s.n)
			if route != routeUpload {
				mirroredNs += s.durNs
			}
		}
		if strings.HasPrefix(name, "replay.") {
			replayNs += s.durNs
		}
	}
	if webN > 0 {
		ms("web.handler_ms", float64(webNs)/float64(webN)/1e6)
	}
	if mirroredNs > 0 {
		res.coverage = float64(replayNs) / float64(mirroredNs)
	}
	ms("web.http_overhead_ms", mean("overhead.loopback")-mean("overhead.inproc"))
	for metric, name := range map[string]string{
		"feed.build_ms": "feed.build", "feed.write_ms": "feed.write",
		"matview.read_ms": "matview.read", "matview.register_ms": "matview.register",
		"album.about_resource_ms": "album.about_resource", "album.keyword_fresh_ms": "album.keyword_fresh",
		"store.text_prefix_ms": "store.text_prefix",
		"sparql.parse_ms":      "sparql.parse", "sparql.exec_ms": "sparql.exec",
		"ugc.publish_ms": "ugc.publish", "annotate.annotate_ms": "annotate.annotate",
		"resolver.text_ms": "resolver.text", "resolver.term_ms": "resolver.term",
		"matview.sync_ms_per_upload": "matview.sync",
		"lod.generate_ms":            "lod.generate", "workload.generate_ms": "workload.generate",
		"store.dump_ms": "store.dump", "rdf.parse_nquads_ms": "rdf.parse_nquads", "store.load_ms": "store.load",
	} {
		ms(metric, mean(name))
	}
	ms("langdetect.detect_us", mean("langdetect.detect")*1e3)
	ms("sparql.plan_ms", max(mean("sparql.explain_static")-mean("sparql.parse"), 0))
	ms("ugc.publish_self_ms", max(mean("ugc.publish")-mean("annotate.annotate"), 0))
	if a := float64(root.analyzed); a > 0 {
		ms("sparql.bgp_self_ms", float64(root.bgpNs)/a/1e6)
		ms("sparql.nonbgp_self_ms", float64(root.nonBGPNs)/a/1e6)
		ms("sparql.lease_wait_ms", float64(root.leaseWaitNs)/a/1e6)
	}
	ms("store.load_quads_per_s", float64(loaded)/(mean("store.load")/1e3))
	ms("store.snapshot_bytes_per_quad", float64(len(text))/float64(loaded))
	return res, nil
}

// writeSpans writes the replay's spans to one JSON file.
func writeSpans(path, workload string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(map[string]any{"workload": workload, "spans": spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// replayer mirrors the web handlers by direct calls into the layers
// below them.
type replayer struct {
	in  *inproc
	ctx context.Context

	mu  sync.Mutex
	err error
}

func (rp *replayer) fail(err error) {
	rp.mu.Lock()
	if rp.err == nil {
		rp.err = err
	}
	rp.mu.Unlock()
}

func (rp *replayer) firstErr() error {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	return rp.err
}

// request replays one request: the handler itself in a web.<route>
// span, then the same work by direct calls in a replay.<route> span,
// then the passes that have no place in the served path.
func (rp *replayer) request(t *tracer, seq *sequence, idx int) sample {
	o := &seq.ops[idx]
	t.trace = idx
	defer func() { t.trace = -1 }()
	if o.Route == routeUpload {
		return rp.upload(t, o)
	}
	var out sample
	t.do("web."+o.Route, func() { out = rp.in.serve(o) })
	u, err := url.Parse(o.URL)
	if err != nil {
		rp.fail(err)
		return out
	}
	t.queries = t.queries[:0]
	t.do("replay."+o.Route, func() { rp.mirror(t, o.Route, u) })

	if o.Route == routeFeed {
		kw := strings.TrimPrefix(u.Path, "/feeds/keyword/")
		t.do("album.keyword_fresh", func() {
			if _, err := album.ByKeywordSemantic(rp.in.platform.Store, kw).Items(); err != nil {
				rp.fail(err)
			}
		})
	}
	if idx%explainEvery == 0 {
		for _, src := range t.queries {
			t.do("sparql.explain_static", func() {
				if _, err := rp.in.srv.Engine.Explain(rp.ctx, src, false); err != nil {
					rp.fail(err)
				}
			})
			exp, err := rp.in.srv.Engine.Explain(rp.ctx, src, true)
			if err != nil {
				rp.fail(err)
				continue
			}
			bgp := bgpNs(exp.Plan)
			t.analyzed++
			t.bgpNs += bgp
			t.nonBGPNs += exp.WallNs - bgp
			t.leaseWaitNs += exp.LeaseWaitNs
		}
	}
	return out
}

// bgpNs sums the wall time of the plan's BGP operators; what is left
// of the root's is filters, unions, sorting and materialization.
func bgpNs(n *sparql.PlanNode) int64 {
	if n.Op == "bgp" {
		return n.WallNs
	}
	var sum int64
	for _, c := range n.Children {
		sum += bgpNs(c)
	}
	return sum
}

// query is Engine.QueryCtx in two spans. ctx is the one the mirrored
// handler would pass: the request's, which carries a trace and makes
// the engine record a span of its own, or none (the album package
// queries without one).
func (rp *replayer) query(t *tracer, ctx context.Context, src string) []sparql.Solution {
	var q *sparql.Query
	var res *sparql.Result
	var err error
	t.do("sparql.parse", func() { q, err = sparql.Parse(src) })
	if err == nil {
		t.do("sparql.exec", func() { res, err = rp.in.srv.Engine.ExecCtx(ctx, q) })
	}
	if err != nil {
		rp.fail(err)
		return nil
	}
	t.queries = append(t.queries, src)
	return res.Solutions
}

// aboutResource is album.AboutResource(...).Items() with the query
// split into its spans.
func (rp *replayer) aboutResource(t *tracer, subj rdf.Term) []album.Item {
	var items []album.Item
	t.do("album.about_resource", func() {
		a := album.AboutResource(rp.in.platform.Store, subj)
		for _, sol := range rp.query(t, context.Background(), a.Query) {
			items = append(items, album.Item{Resource: sol["resource"].Value(), MediaURL: sol["link"].Value()})
		}
	})
	return items
}

// tracedView times the view read inside feed.FromAlbum.
type tracedView struct {
	album.Materialized
	t *tracer
}

func (v tracedView) Solutions() (out []sparql.Solution) {
	v.t.do("matview.read", func() { out = v.Materialized.Solutions() })
	return out
}

// mirror does what the route's handler does, layer by layer.
func (rp *replayer) mirror(t *tracer, route string, u *url.URL) {
	st := rp.in.platform.Store
	var out any
	switch route {
	case routeFeed:
		kw := strings.TrimPrefix(u.Path, "/feeds/keyword/")
		a := album.ByKeywordSemantic(st, kw)
		if v, ok := rp.in.srv.Views.Get("keyword:" + kw); ok {
			a.View = tracedView{v, t}
		}
		var f *feed.Feed
		var err error
		t.do("feed.build", func() { f, err = feed.FromAlbum(a, u.String(), time.Now().UTC()) })
		if err == nil {
			t.do("feed.write", func() { err = f.WriteRSS(io.Discard) })
		}
		if err != nil {
			rp.fail(err)
		}
		return
	case routeSearch:
		q := strings.TrimSpace(u.Query().Get("q"))
		var subjects []rdf.Term
		t.do("store.text_prefix", func() { subjects = st.TextPrefixSearch(q, 0) })
		cands := []web.SearchCandidate{}
		for _, subj := range subjects {
			if !subj.IsIRI() {
				continue
			}
			label := ""
			for _, l := range st.Objects(subj, rdf.NewIRI(rdf.RDFSLabel)) {
				if label == "" || l.Lang() == "en" {
					label = l.Value()
				}
			}
			if label == "" {
				label = st.FirstObject(subj, ugc.PredTitle).Value()
			}
			if label == "" {
				continue
			}
			var types []string
			for _, ty := range st.Objects(subj, ugc.PredType) {
				types = append(types, ty.Value())
			}
			cands = append(cands, web.SearchCandidate{Resource: subj.Value(), Label: label, Types: types,
				Contents: len(rp.aboutResource(t, subj))})
			if len(cands) >= rp.in.srv.SearchLimit {
				break
			}
		}
		out = cands
	case routeAbout:
		pid, _ := strconv.ParseInt(u.Query().Get("pid"), 10, 64)
		c, ok := rp.in.platform.Content(pid)
		if !ok {
			rp.fail(fmt.Errorf("no content %d", pid))
			return
		}
		var entries []web.AboutEntry
		for _, sol := range rp.query(t, rp.ctx, web.AboutMashupQuery(c.IRI.Value(), u.Query().Get("lang"))) {
			entries = append(entries, web.AboutEntry{Label: sol["lbl"].Value(), Type: sol["entType"].Value(),
				Desc: sol["desc"].Value(), Resource: sol["others"].Value()})
		}
		out = entries
	case routeResource:
		var list []web.ResourceContent
		for _, it := range rp.aboutResource(t, rdf.NewIRI(u.Query().Get("iri"))) {
			list = append(list, web.ResourceContent{Resource: it.Resource, MediaURL: it.MediaURL,
				Thumbnail: it.MediaURL + "?thumb=1", Title: st.FirstObject(rdf.NewIRI(it.Resource), ugc.PredTitle).Value()})
		}
		out = list
	case routeSparql:
		// The SPARQL JSON results document of handleSPARQL.
		bindings := []map[string]map[string]string{}
		for _, sol := range rp.query(t, rp.ctx, u.Query().Get("query")) {
			b := map[string]map[string]string{}
			for v, term := range sol {
				kind := "literal"
				if term.IsIRI() {
					kind = "uri"
				}
				b[v] = map[string]string{"type": kind, "value": term.Value()}
			}
			bindings = append(bindings, b)
		}
		out = map[string]any{"results": map[string]any{"bindings": bindings}}
	}
	if err := json.NewEncoder(io.Discard).Encode(out); err != nil {
		rp.fail(err)
	}
}

// upload mirrors handleUpload around Platform.Publish, then replays
// the annotation stages on their own and waits for the view fold.
func (rp *replayer) upload(t *tracer, o *op) sample {
	var req struct {
		User, Filename, Title, TakenAt string
		Tags                           []string
		Lat, Lon                       float64
	}
	start := time.Now()
	status := http.StatusOK
	t.do("web.upload", func() {
		if err := json.Unmarshal([]byte(o.Body), &req); err != nil {
			rp.fail(err)
			return
		}
		taken, err := time.Parse(time.RFC3339, req.TakenAt)
		if err != nil {
			rp.fail(err)
			return
		}
		var c *ugc.Content
		t.do("ugc.publish", func() {
			c, err = rp.in.platform.Publish(ugc.Upload{User: req.User, Filename: req.Filename, Title: req.Title,
				Tags: req.Tags, TakenAt: taken, GPS: &geo.Point{Lon: req.Lon, Lat: req.Lat}})
		})
		if err != nil {
			rp.fail(err)
			status = http.StatusBadRequest
			return
		}
		err = json.NewEncoder(io.Discard).Encode(map[string]any{"id": c.ID, "iri": c.IRI.Value(), "mediaUrl": c.MediaURL, "language": c.Language})
		if err != nil {
			rp.fail(err)
		}
	})
	out := sample{ns: int64(time.Since(start)), status: status, rows: 1}
	t.do("matview.sync", rp.in.srv.Views.Sync)
	lang := ""
	t.do("langdetect.detect", func() { lang = rp.in.detector.Detect(req.Title) })
	t.do("resolver.text", func() { rp.in.broker.ResolveText(rp.ctx, req.Title, lang) })
	for _, tag := range req.Tags {
		t.do("resolver.term", func() { rp.in.broker.ResolveTerm(rp.ctx, tag, lang) })
	}
	t.do("annotate.annotate", func() { rp.in.pipe.Annotate(rp.ctx, req.Title, req.Tags) })
	return out
}

package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"slices"
	"sort"
	"strconv"
	"time"

	"lodify/internal/album"
	"lodify/internal/geo"
	"lodify/internal/lod"
)

// The corpus cmd/lodify publishes at boot. The generator below only
// needs these three numbers and the LOD world (itself a pure function
// of lod.DefaultConfig) to know every pid, user and keyword the server
// can answer for; a second corpus would be a second such spec.
const (
	serverContents = 5000
	serverUsers    = 20
	serverSeed     = 7
)

// Request classes. For the five web routes the class is the route; the
// seven /sparql shapes are classes of their own, so a percentile is
// never taken over a mixture of shapes.
const (
	routeFeed     = "feed"
	routeSearch   = "search"
	routeAbout    = "about"
	routeResource = "resource"
	routeUpload   = "upload"
	routeSparql   = "sparql"
)

var routes = []string{routeFeed, routeSearch, routeAbout, routeResource, routeUpload, routeSparql}

// shapes are the named /sparql query shapes of the adhoc workload.
// rowVar is a variable bound in every solution, so a response's row
// count is the number of times it appears as a binding key.
var shapes = []struct{ name, rowVar string }{
	{"near", "resource"},
	{"keyword-union", "resource"},
	{"count-by-maker", "user"},
	{"near-friends", "resource"},
	{"near-friends-rated", "resource"},
	{"fof-path", "fof"},
	{"optional-order", "pic"},
}

// share is one kind of action and its exact share of a workload.
type share struct {
	kind string // a route, or a shape name
	part float64
}

// workloadSpec fixes a workload's size and mix. actions is the measured
// count over both clients at -seconds 20; other lengths scale it.
type workloadSpec struct {
	name    string
	actions int
	mix     []share
}

var browseMix = []share{{routeFeed, 0.3}, {routeSearch, 0.3}, {routeAbout, 0.2}, {routeResource, 0.2}}

// ISSUE 13 sized the counts (700, 10 000, 700 and 2 500 per client) for
// ~30 s; the driver's total-time cap leaves 20 s per run, and on the
// reference box one common factor would leave browse at 29 s with
// upload at 20, so each count is sized on its own to measure ~20 s.
var workloads = []workloadSpec{
	{"browse", 700, browseMix},
	{"upload", 15000, []share{{routeUpload, 1}}},
	{"mixed", 700, append([]share{{routeUpload, 0.2}}, scale(browseMix, 0.8)...)},
	{"adhoc", 3200, []share{
		{"near", 0.2}, {"keyword-union", 0.2}, {"count-by-maker", 0.2},
		{"near-friends", 0.1}, {"near-friends-rated", 0.1}, {"fof-path", 0.1}, {"optional-order", 0.1},
	}},
}

const (
	baseSeconds   = 20  // the run length the counts above are sized for
	warmupActions = 100 // over both clients, after the keyword feeds
)

// writes reports whether the workload uploads; one that does not
// leaves the store as the boot corpus made it.
func (w workloadSpec) writes() bool {
	return slices.ContainsFunc(w.mix, func(s share) bool { return s.kind == routeUpload })
}

func scale(mix []share, f float64) []share {
	out := make([]share, len(mix))
	for i, s := range mix {
		out[i] = share{s.kind, s.part * f}
	}
	return out
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// op is one HTTP request of a pre-generated sequence.
type op struct {
	Route  string
	Shape  string // /sparql only
	Method string
	URL    string // path and query
	Body   string
	// Marker occurs once per result row in a correct response body.
	Marker string
	// Tags of an upload: the generator's ground truth for the keyword
	// feeds that must list it afterwards.
	Tags []string
}

// class is the key the op's latency is grouped under.
func (o *op) class() string {
	if o.Shape != "" {
		return o.Shape
	}
	return o.Route
}

// sequence is a list of actions, each a run of requests one connection
// sends back to back (a search session is one action of several
// requests). Connections take whole actions off the list in order.
type sequence struct {
	ops   []op
	start []int // start[i] is the index in ops of action i's first request
}

func (s *sequence) add(action ...op) {
	s.start = append(s.start, len(s.ops))
	s.ops = append(s.ops, action...)
}

func (s *sequence) actions() int { return len(s.start) }

func (s *sequence) action(i int) []op {
	end := len(s.ops)
	if i+1 < len(s.start) {
		end = s.start[i+1]
	}
	return s.ops[s.start[i]:end]
}

// prefix is the sequence cut after n actions.
func (s *sequence) prefix(n int) *sequence {
	if n >= s.actions() {
		return s
	}
	return &sequence{ops: s.ops[:s.start[n]], start: s.start[:n]}
}

// hash identifies the exact requests of a sequence.
func (s *sequence) hash() string {
	h := sha256.New()
	for i := range s.ops {
		o := &s.ops[i]
		fmt.Fprintf(h, "%s %s\n%s\n", o.Method, o.URL, o.Body)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// corpus is what the generator knows about the served world.
type corpus struct {
	world    *lod.World
	contents int
	users    []string
	// keywords are the tags the corpus generator can emit: the folded
	// label of every city and landmark in each content language,
	// English first so the skew favours them.
	keywords []string
	// stable are keywords whose landmark folds to the same tag in every
	// content language: a content is in that keyword's album exactly
	// when it carries the tag, whatever annotation made of its title.
	stable []string
	// labels are the English labels users type into the search box.
	labels    []string
	landmarks []landmark
}

type landmark struct {
	city *lod.City
	lm   *lod.Landmark
	iri  string
}

var langs = []string{"en", "it", "fr", "es", "de"}

func newCorpus(contents int) *corpus {
	w := lod.Generate(lod.DefaultConfig())
	c := &corpus{world: w, contents: contents}
	for i := 0; i < serverUsers; i++ {
		c.users = append(c.users, fmt.Sprintf("user%02d", i))
	}
	seen := map[string]bool{}
	owners := map[string]int{} // tag -> how many distinct entities fold to it
	keyword := func(kw string) {
		if kw != "" && !seen[kw] {
			seen[kw] = true
			c.keywords = append(c.keywords, kw)
		}
	}
	entityTags := func(labels map[string]string, name string) map[string]bool {
		tags := map[string]bool{}
		for _, lang := range langs {
			tags[fold(labelOr(labels, lang, name))] = true
		}
		for t := range tags {
			owners[t]++
		}
		return tags
	}
	var landmarkTags []map[string]bool
	for ci := range w.Cities {
		city := &w.Cities[ci]
		c.labels = append(c.labels, city.Labels["en"])
		entityTags(city.Labels, city.Name)
		for li := range city.Landmarks {
			lm := &city.Landmarks[li]
			iri, _ := w.DBpediaIRI(lm.Name)
			c.landmarks = append(c.landmarks, landmark{city, lm, iri.Value()})
			c.labels = append(c.labels, labelOr(lm.Labels, "en", lm.Name))
			landmarkTags = append(landmarkTags, entityTags(lm.Labels, lm.Name))
		}
	}
	// English first, then the other languages, each pass cities before
	// landmarks: the order is the popularity rank of the feed skew.
	for _, lang := range langs {
		for ci := range w.Cities {
			keyword(fold(labelOr(w.Cities[ci].Labels, lang, w.Cities[ci].Name)))
		}
		for _, l := range c.landmarks {
			keyword(fold(labelOr(l.lm.Labels, lang, l.lm.Name)))
		}
	}
	for _, tags := range landmarkTags {
		if len(tags) != 1 {
			continue
		}
		for t := range tags {
			if owners[t] == 1 {
				c.stable = append(c.stable, t)
			}
		}
	}
	sort.Strings(c.stable)
	return c
}

func labelOr(labels map[string]string, lang, fallback string) string {
	if l := labels[lang]; l != "" {
		return l
	}
	return fallback
}

// fold lowercases a label's first word the way internal/workload folds
// tags (ASCII only: "Turín" keeps its accent).
func fold(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		if r >= 'A' && r <= 'Z' {
			r += 'a' - 'A'
		}
		if r == ' ' {
			break
		}
		out = append(out, r)
	}
	return string(out)
}

// Title templates of internal/workload (unexported there): uploads are
// titled the way the boot corpus is, so the annotation pipeline sees
// the same language and entity mix.
var titleTemplates = map[string][]string{
	"en": {"Sunset over %s", "A beautiful day at %s", "Walking around %s with friends", "%s by night"},
	"it": {"Tramonto su %s", "Una bella giornata a %s", "Passeggiata intorno a %s con gli amici", "%s di notte"},
	"fr": {"Coucher du soleil sur %s", "Une belle journée à %s", "Promenade autour de %s avec les amis"},
	"es": {"Puesta de sol sobre %s", "Un hermoso día en %s", "Paseando por %s con los amigos"},
	"de": {"Sonnenuntergang über %s", "Ein schöner Tag bei %s", "Spaziergang um %s mit Freunden"},
}

var noEntityTitles = map[string][]string{
	"en": {"what a wonderful evening", "great food and good friends"},
	"it": {"che serata meravigliosa", "ottimo cibo e buoni amici"},
	"fr": {"quelle soirée merveilleuse"},
	"es": {"qué tarde tan maravillosa"},
	"de": {"was für ein wunderbarer abend"},
}

// deck deals the numbers 0..n-1, each weight[i] times, in a seeded
// order, and reshuffles when it runs out. Drawing parameters from decks
// keeps every seed's sequence at the same proportions: the seed decides
// order and pairing, not how much work a run contains.
type deck struct {
	rng   *rand.Rand
	cards []int
	pos   int
}

func newDeck(rng *rand.Rand, weights ...int) *deck {
	d := &deck{rng: rng}
	for i, w := range weights {
		for ; w > 0; w-- {
			d.cards = append(d.cards, i)
		}
	}
	return d
}

func uniform(n int) []int {
	w := make([]int, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

func (d *deck) next() int {
	if d.pos == 0 {
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
	}
	v := d.cards[d.pos]
	d.pos = (d.pos + 1) % len(d.cards)
	return v
}

// generator turns a seed into requests.
type generator struct {
	c   *corpus
	rng *rand.Rand
	// One deck per parameter a request's cost depends on.
	keyword, label, landmark, user, city, lang, titleKind *deck
	uploads                                               int
	filePrefix                                            string
}

func newGenerator(c *corpus, seed int64, filePrefix string) *generator {
	rng := rand.New(rand.NewSource(seed))
	// Feed popularity falls off as 1/rank: a few cities and landmarks
	// take most reads, the long tail of translated tags few.
	skew := make([]int, len(c.keywords))
	for i := range skew {
		skew[i] = int(math.Ceil(12 / float64(i+1)))
	}
	return &generator{
		c: c, rng: rng, filePrefix: filePrefix,
		keyword:   newDeck(rng, skew...),
		label:     newDeck(rng, uniform(len(c.labels))...),
		landmark:  newDeck(rng, uniform(len(c.landmarks))...),
		user:      newDeck(rng, uniform(len(c.users))...),
		city:      newDeck(rng, uniform(len(c.world.Cities))...),
		lang:      newDeck(rng, uniform(len(langs))...),
		titleKind: newDeck(rng, 14, 3, 3), // 70% landmark, 15% city, 15% no entity
	}
}

// generate builds n actions in the workload's exact proportions.
func (g *generator) generate(mix []share, n int) *sequence {
	kinds := apportion(mix, n)
	g.rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	seq := &sequence{}
	for _, k := range kinds {
		seq.add(g.action(k)...)
	}
	return seq
}

// apportion gives each kind its share of n actions, largest remainder
// first, so the counts sum to n and do not depend on the seed.
func apportion(mix []share, n int) []string {
	type rem struct {
		i    int
		frac float64
	}
	counts := make([]int, len(mix))
	rems := make([]rem, len(mix))
	total := 0
	for i, s := range mix {
		exact := s.part * float64(n)
		counts[i] = int(exact)
		total += counts[i]
		rems[i] = rem{i, exact - float64(counts[i])}
	}
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].frac > rems[b].frac })
	for k := 0; total < n; k, total = k+1, total+1 {
		counts[rems[k%len(rems)].i]++
	}
	var out []string
	for i, s := range mix {
		for k := 0; k < counts[i]; k++ {
			out = append(out, s.kind)
		}
	}
	return out
}

func (g *generator) action(kind string) []op {
	switch kind {
	case routeFeed:
		return []op{feedOp(g.c.keywords[g.keyword.next()])}
	case routeSearch:
		// Typed incrementally like the AJAX client: one request per
		// prefix from 3 to at most 8 runes.
		runes := []rune(g.c.labels[g.label.next()])
		var out []op
		for n := 3; n <= len(runes) && n <= 8; n++ {
			out = append(out, op{Route: routeSearch, Method: "GET", Marker: `"resource":`,
				URL: "/api/search?q=" + url.QueryEscape(string(runes[:n]))})
		}
		return out
	case routeAbout:
		lang := []string{"en", "it"}[g.rng.Intn(2)]
		return []op{{Route: routeAbout, Method: "GET", Marker: `"label":`,
			URL: fmt.Sprintf("/api/about?pid=%d&lang=%s", 1+g.rng.Intn(g.c.contents), lang)}}
	case routeResource:
		l := g.c.landmarks[g.landmark.next()]
		return []op{{Route: routeResource, Method: "GET", Marker: `"resource":`,
			URL: "/api/resource?iri=" + url.QueryEscape(l.iri)}}
	case routeUpload:
		return []op{g.upload()}
	}
	return []op{g.sparql(kind)}
}

func feedOp(kw string) op {
	return op{Route: routeFeed, Method: "GET", Marker: "<item>", URL: "/feeds/keyword/" + url.PathEscape(kw)}
}

// upload mirrors one iteration of workload.Generate's content loop.
func (g *generator) upload() op {
	lang := langs[g.lang.next()]
	city := &g.c.world.Cities[g.city.next()]
	var title string
	var tags []string
	var pt geo.Point
	switch g.titleKind.next() {
	case 0:
		lm := &city.Landmarks[g.rng.Intn(len(city.Landmarks))]
		label := labelOr(lm.Labels, lang, lm.Name)
		title = fmt.Sprintf(g.pick(titleTemplates[lang]), label)
		tags = []string{fold(label)}
		if g.rng.Float64() < 0.4 {
			tags = append(tags, fold(city.Labels[lang]))
		}
		pt = g.jitter(lm.Point, 0.01)
	case 1:
		label := labelOr(city.Labels, lang, city.Name)
		title = fmt.Sprintf(g.pick(titleTemplates[lang]), label)
		tags = []string{fold(label)}
		pt = g.jitter(city.Point, 0.05)
	default:
		title = g.pick(noEntityTitles[lang])
		pt = g.jitter(city.Point, 0.05)
	}
	g.uploads++
	taken := time.Date(2012, 1, 1, 10, 0, 0, 0, time.UTC).Add(time.Duration(g.uploads) * time.Minute)
	body, _ := json.Marshal(map[string]any{ // strings and floats only: cannot fail
		"user":     g.c.users[g.user.next()],
		"filename": fmt.Sprintf("%s%06d.jpg", g.filePrefix, g.uploads),
		"title":    title,
		"tags":     tags,
		"lat":      pt.Lat,
		"lon":      pt.Lon,
		"takenAt":  taken.Format(time.RFC3339),
	})
	return op{Route: routeUpload, Method: "POST", URL: "/api/upload", Body: string(body), Marker: `"id":`, Tags: tags}
}

func (g *generator) pick(s []string) string { return s[g.rng.Intn(len(s))] }

func (g *generator) jitter(p geo.Point, r float64) geo.Point {
	return geo.Point{Lon: p.Lon + (g.rng.Float64()*2-1)*r, Lat: p.Lat + (g.rng.Float64()*2-1)*r}
}

const sparqlPrefixes = `PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
PREFIX sioct: <http://rdfs.org/sioc/types#>
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
PREFIX rev: <http://purl.org/stuff/rev#>
PREFIX dc: <http://purl.org/dc/elements/1.1/>
PREFIX dcterms: <http://purl.org/dc/terms/>
PREFIX gn: <http://www.geonames.org/ontology#>
`

// nearPrecision is the st_intersects radius of the three §2.3 shapes,
// in degrees: wide enough to catch the jittered shots of one landmark.
const nearPrecision = 0.05

func (g *generator) sparql(shape string) op {
	st := g.c.world.Store // the album constructors only bind an engine to it
	var q, rowVar string
	for _, s := range shapes {
		if s.name == shape {
			rowVar = s.rowVar
		}
	}
	lm := func() string { return labelOr(g.c.landmarks[g.landmark.next()].lm.Labels, "en", "") }
	user := func() string { return g.c.users[g.user.next()] }
	switch shape {
	case "near":
		q = album.NearMonument(st, lm(), "en", nearPrecision).Query
	case "keyword-union":
		q = album.ByKeywordSemantic(st, g.c.keywords[g.keyword.next()]).Query
	case "count-by-maker":
		q = sparqlPrefixes + fmt.Sprintf(`SELECT ?user (COUNT(?pic) AS ?n) WHERE {
  ?pic a sioct:MicroblogPost . ?pic foaf:maker ?user .
  ?pic dcterms:spatial ?place . ?place gn:name %s .
} GROUP BY ?user ORDER BY DESC(?n) ?user LIMIT 10`, strconv.Quote(g.c.world.Cities[g.city.next()].Name))
	case "near-friends":
		q = album.NearMonumentByFriends(st, lm(), "en", nearPrecision, user()).Query
	case "near-friends-rated":
		q = album.NearMonumentByFriendsRated(st, lm(), "en", nearPrecision, user()).Query
	case "fof-path":
		q = sparqlPrefixes + fmt.Sprintf(`SELECT DISTINCT ?fof WHERE { ?u foaf:name %q . ?u foaf:knows/foaf:knows ?fof . }`, user())
	case "optional-order":
		q = sparqlPrefixes + fmt.Sprintf(`SELECT ?pic ?title ?points WHERE {
  ?u foaf:name %q . ?pic foaf:maker ?u . ?pic dc:title ?title .
  OPTIONAL { ?pic rev:rating ?points }
} ORDER BY DESC(?points) ?title LIMIT 20`, user())
	default:
		panic("bench: unknown action kind " + shape)
	}
	return op{Route: routeSparql, Shape: shape, Method: "GET", Marker: `"` + rowVar + `":{`,
		URL: "/sparql?query=" + url.QueryEscape(q)}
}

// plan is everything one run sends: the feeds that register the
// keyword views, the warm-up actions and the measured actions.
type plan struct {
	feeds    *sequence
	warmup   *sequence
	measured *sequence
}

// newPlan generates the run's requests from the seed alone. The warm-up
// draws from its own generator so that changing its length leaves the
// measured sequence as it was.
func newPlan(c *corpus, w workloadSpec, seed int64, actions int) *plan {
	p := &plan{feeds: &sequence{}}
	for _, kw := range c.keywords {
		p.feeds.add(feedOp(kw))
	}
	p.warmup = newGenerator(c, seed<<1|1, "w").generate(w.mix, warmupActions)
	p.measured = newGenerator(c, seed<<1, "m").generate(w.mix, actions)
	return p
}

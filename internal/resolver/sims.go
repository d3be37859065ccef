package resolver

import (
	"sort"
	"strings"

	"lodify/internal/lod"
	"lodify/internal/rdf"
	"lodify/internal/store"
	"lodify/internal/textsim"
)

// labelIndex is the shared scaffolding of the simulated resolvers: a
// folded-label index over one or more graphs of the LOD store.
type labelIndex struct {
	st *store.Store
	// entries per folded token, pointing to (resource, label literal).
	byToken map[string][]labelEntry
	graphs  map[string]bool // graph IRIs covered; empty = all
}

type labelEntry struct {
	res   rdf.Term
	label rdf.Term
}

// scoredLabel is a label entry with its Jaro-Winkler score against the
// term it was looked up for.
type scoredLabel struct {
	labelEntry
	score float64
}

func newLabelIndex(st *store.Store, graphs ...string) *labelIndex {
	ix := &labelIndex{st: st, byToken: map[string][]labelEntry{}, graphs: map[string]bool{}}
	for _, g := range graphs {
		ix.graphs[g] = true
	}
	label := rdf.NewIRI(rdf.RDFSLabel)
	st.Match(rdf.Term{}, label, rdf.Term{}, rdf.Term{}, func(q rdf.Quad) bool {
		if len(ix.graphs) > 0 && !ix.graphs[q.G.Value()] {
			return true
		}
		for _, tok := range store.Tokenize(q.O.Value()) {
			ix.byToken[tok] = append(ix.byToken[tok], labelEntry{res: q.S, label: q.O})
		}
		return true
	})
	return ix
}

// lookup returns, per resource, its best label among those containing
// every token of term.
func (ix *labelIndex) lookup(term string) []scoredLabel {
	return ix.bestLabels(term, func(e labelEntry) bool { return store.ContainsAll(e.label.Value(), term) })
}

// bestLabels returns one entry per resource among the labels that
// share term's first token and pass keep: the label scoring highest
// against term, ties going to the smaller label. Which of a resource's
// language labels gets scored must not depend on index-build order —
// that follows store scan order, which differs from boot to boot.
// Entries come back sorted by resource.
func (ix *labelIndex) bestLabels(term string, keep func(labelEntry) bool) []scoredLabel {
	toks := store.Tokenize(term)
	if len(toks) == 0 {
		return nil
	}
	best := map[rdf.Term]scoredLabel{}
	for _, e := range ix.byToken[toks[0]] {
		if !keep(e) {
			continue
		}
		sc := textsim.JaroWinklerFold(term, e.label.Value())
		if prev, dup := best[e.res]; !dup || sc > prev.score ||
			sc == prev.score && e.label.Compare(prev.label) < 0 {
			best[e.res] = scoredLabel{e, sc}
		}
	}
	out := make([]scoredLabel, 0, len(best))
	for _, e := range best {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].res.Compare(out[j].res) < 0 })
	return out
}

func (ix *labelIndex) typesOf(res rdf.Term) []rdf.Term {
	return ix.st.Objects(res, rdf.NewIRI(rdf.RDFType))
}

// DBpediaResolver simulates the optimized DBpedia SPARQL lookup of
// §2.2.2: full-text label match, language filter, entity-type aware
// native scoring, and redirect following so "disambiguation" aliases
// never surface.
type DBpediaResolver struct {
	ix *labelIndex
	st *store.Store
}

// NewDBpediaResolver indexes the DBpedia graph of the world store.
func NewDBpediaResolver(st *store.Store) *DBpediaResolver {
	return &DBpediaResolver{ix: newLabelIndex(st, lod.DBpediaGraph), st: st}
}

// Name implements TermResolver.
func (r *DBpediaResolver) Name() string { return "dbpedia-sparql" }

// ResolveTerm implements TermResolver.
func (r *DBpediaResolver) ResolveTerm(term, lang string, limit int) []Candidate {
	var out []Candidate
	redirects := rdf.NewIRI(lod.DBpediaOntology + "wikiPageRedirects")
	disambiguates := rdf.NewIRI(lod.DBpediaOntology + "wikiPageDisambiguates")
	for _, e := range r.ix.lookup(term) {
		res := e.res
		// Follow redirections to the canonical resource (§2.2.2:
		// "The query also follows resource redirections").
		if target := r.st.FirstObject(res, redirects); !target.IsZero() {
			res = target
		}
		// The DBpedia resolver performs its own disambiguation-page
		// check: pages that disambiguate are never returned.
		if !r.st.FirstObject(res, disambiguates).IsZero() {
			continue
		}
		score := e.score
		// Language preference: labels matching the query language get
		// a native boost.
		if lang != "" && e.label.Lang() == lang {
			score = clamp(score + 0.05)
		}
		out = append(out, Candidate{
			Resource: res,
			Label:    e.label.Value(),
			Lang:     e.label.Lang(),
			Graph:    GraphOf(res),
			Types:    r.ix.typesOf(res),
			Score:    score,
			Resolver: r.Name(),
			Word:     term,
		})
	}
	return top(out, limit)
}

// GeonamesResolver simulates a Geonames search: term lookup over the
// Geonames graph, feature-code aware.
type GeonamesResolver struct {
	ix *labelIndex
}

// NewGeonamesResolver indexes the Geonames graph.
func NewGeonamesResolver(st *store.Store) *GeonamesResolver {
	return &GeonamesResolver{ix: newLabelIndex(st, lod.GeonamesGraph)}
}

// Name implements TermResolver.
func (r *GeonamesResolver) Name() string { return "geonames" }

// ResolveTerm implements TermResolver.
func (r *GeonamesResolver) ResolveTerm(term, lang string, limit int) []Candidate {
	var out []Candidate
	for _, e := range r.ix.lookup(term) {
		out = append(out, Candidate{
			Resource: e.res,
			Label:    e.label.Value(),
			Graph:    GraphOf(e.res),
			Types:    r.ix.typesOf(e.res),
			Score:    e.score,
			Resolver: r.Name(),
			Word:     term,
		})
	}
	return top(out, limit)
}

// SindiceResolver simulates the Sindice semantic web index: it
// returns candidates from every graph, with fuzzier matching and
// noisier scores — including partial-token junk the filtering stage
// must discard. Per §2.2.2 its candidates "may refer to various
// ontologies", which is why priorities attach to graphs, not
// resolvers.
type SindiceResolver struct {
	ix *labelIndex
}

// NewSindiceResolver indexes all graphs.
func NewSindiceResolver(st *store.Store) *SindiceResolver {
	return &SindiceResolver{ix: newLabelIndex(st)}
}

// Name implements TermResolver.
func (r *SindiceResolver) Name() string { return "sindice" }

// ResolveTerm implements TermResolver.
func (r *SindiceResolver) ResolveTerm(term, lang string, limit int) []Candidate {
	// Fuzzy: any label sharing the first token is a candidate, even
	// when the full term does not match (web-index noise).
	var out []Candidate
	for _, e := range r.ix.bestLabels(term, func(labelEntry) bool { return true }) {
		score := e.score * 0.9 // noisier
		out = append(out, Candidate{
			Resource: e.res,
			Label:    e.label.Value(),
			Lang:     e.label.Lang(),
			Graph:    GraphOf(e.res),
			Types:    r.ix.typesOf(e.res),
			Score:    score,
			Resolver: r.Name(),
			Word:     term,
		})
	}
	return top(out, limit)
}

// EvriResolver simulates the Evri entity resolver: full-text entity
// spotting with type information. It scans the title for known entity
// labels (longest span first).
type EvriResolver struct {
	ix *labelIndex
}

// NewEvriResolver indexes the DBpedia graph (Evri's catalog was
// celebrity/POI-centric).
func NewEvriResolver(st *store.Store) *EvriResolver {
	return &EvriResolver{ix: newLabelIndex(st, lod.DBpediaGraph)}
}

// Name implements TextResolver.
func (r *EvriResolver) Name() string { return "evri" }

// ResolveText implements TextResolver.
func (r *EvriResolver) ResolveText(title, lang string, limit int) []Candidate {
	return spotEntities(r.ix, title, lang, limit, r.Name(), 1.0)
}

// ZemantaResolver simulates Zemanta's content suggestion engine:
// full-text spotting over all graphs with slightly noisier scores.
type ZemantaResolver struct {
	ix *labelIndex
}

// NewZemantaResolver indexes all graphs.
func NewZemantaResolver(st *store.Store) *ZemantaResolver {
	return &ZemantaResolver{ix: newLabelIndex(st)}
}

// Name implements TextResolver.
func (r *ZemantaResolver) Name() string { return "zemanta" }

// ResolveText implements TextResolver.
func (r *ZemantaResolver) ResolveText(title, lang string, limit int) []Candidate {
	return spotEntities(r.ix, title, lang, limit, r.Name(), 0.92)
}

// spotEntities finds known entity labels inside the title: for each
// n-gram window (longest first) it checks the label index.
func spotEntities(ix *labelIndex, title, lang string, limit int, name string, damp float64) []Candidate {
	toks := store.Tokenize(title)
	var out []Candidate
	used := make([]bool, len(toks))
	for n := 4; n >= 1; n-- {
		for i := 0; i+n <= len(toks); i++ {
			if used[i] {
				continue
			}
			span := strings.Join(toks[i:i+n], " ")
			matched := false
			for _, e := range ix.lookup(span) {
				// Exact folded-label equality is required for a spot.
				if textsim.Fold(e.label.Value()) != textsim.Fold(span) {
					continue
				}
				score := damp
				if lang != "" && e.label.Lang() != "" && e.label.Lang() != lang {
					score *= 0.95
				}
				if n > 1 {
					score = clamp(score + 0.03) // multiword spans are strong evidence
				}
				out = append(out, Candidate{
					Resource: e.res,
					Label:    e.label.Value(),
					Lang:     e.label.Lang(),
					Graph:    GraphOf(e.res),
					Types:    ix.typesOf(e.res),
					Score:    clamp(score * e.score),
					Resolver: name,
					Word:     span,
				})
				matched = true
			}
			if matched {
				for j := i; j < i+n; j++ {
					used[j] = true
				}
			}
		}
	}
	return top(out, limit)
}

func top(cs []Candidate, limit int) []Candidate {
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].Score != cs[j].Score {
			return cs[i].Score > cs[j].Score
		}
		return cs[i].Resource.Compare(cs[j].Resource) < 0
	})
	if limit > 0 && len(cs) > limit {
		cs = cs[:limit]
	}
	return cs
}

func clamp(f float64) float64 {
	if f > 1 {
		return 1
	}
	if f < 0 {
		return 0
	}
	return f
}

// DefaultBroker wires the full resolver set of §2.2.2 over a world
// store: DBpedia (term), Geonames (term), Sindice (term), Evri
// (full-text) and Zemanta (full-text).
func DefaultBroker(st *store.Store) *Broker {
	return NewBroker(
		[]TermResolver{
			NewDBpediaResolver(st),
			NewGeonamesResolver(st),
			NewSindiceResolver(st),
		},
		[]TextResolver{
			NewEvriResolver(st),
			NewZemantaResolver(st),
		},
	)
}

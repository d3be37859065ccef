package resolver

import (
	"context"
	"reflect"
	"testing"

	"lodify/internal/lod"
	"lodify/internal/rdf"
	"lodify/internal/store"
)

func world(t *testing.T) *lod.World {
	t.Helper()
	return lod.Generate(lod.DefaultConfig())
}

func TestGraphOf(t *testing.T) {
	tests := []struct {
		iri  string
		want string
	}{
		{"http://dbpedia.org/resource/Turin", "http://dbpedia.org"},
		{"http://sws.geonames.org/3165524/", "http://geonames.org"},
		{"http://linkedgeodata.org/triplify/node/1", "http://linkedgeodata.org"},
		{"http://example.org/x", "other"},
	}
	for _, tt := range tests {
		if got := GraphOf(rdf.NewIRI(tt.iri)); got != tt.want {
			t.Errorf("GraphOf(%s) = %s, want %s", tt.iri, got, tt.want)
		}
	}
}

func TestDBpediaResolverExactTerm(t *testing.T) {
	w := world(t)
	r := NewDBpediaResolver(w.Store)
	cands := r.ResolveTerm("Colosseum", "en", 8)
	if len(cands) == 0 {
		t.Fatal("no candidates for Colosseum")
	}
	if cands[0].Resource.Value() != lod.DBpediaResource+"Colosseum" {
		t.Fatalf("top = %+v", cands[0])
	}
	if cands[0].Score < 0.95 {
		t.Fatalf("exact match score = %f", cands[0].Score)
	}
	if cands[0].Graph != lod.DBpediaGraph {
		t.Fatalf("graph = %s", cands[0].Graph)
	}
}

func TestDBpediaResolverFollowsRedirects(t *testing.T) {
	w := world(t)
	r := NewDBpediaResolver(w.Store)
	// "Torino" exists (a) as the italian label of Turin and (b) as a
	// redirect alias resource; both paths must land on Turin.
	cands := r.ResolveTerm("Torino", "it", 8)
	if len(cands) == 0 {
		t.Fatal("no candidates for Torino")
	}
	for _, c := range cands {
		if c.Resource.Value() == lod.DBpediaResource+"Torino" {
			t.Fatalf("redirect alias surfaced directly: %+v", c)
		}
	}
	if cands[0].Resource.Value() != lod.DBpediaResource+"Turin" {
		t.Fatalf("top = %+v", cands[0])
	}
}

func TestDBpediaResolverSkipsDisambiguationPages(t *testing.T) {
	w := world(t)
	r := NewDBpediaResolver(w.Store)
	for _, c := range r.ResolveTerm("Turin", "en", 20) {
		if c.Resource.Value() == lod.DBpediaResource+"Turin_(disambiguation)" {
			t.Fatalf("disambiguation page returned: %+v", c)
		}
	}
}

func TestDBpediaResolverAmbiguity(t *testing.T) {
	w := world(t)
	r := NewDBpediaResolver(w.Store)
	// "Paris" matches the French city and the ambiguous towns
	// ("Paris, Texas" ...): downstream must disambiguate.
	cands := r.ResolveTerm("Paris", "en", 20)
	if len(cands) < 2 {
		t.Fatalf("expected ambiguity, got %d candidates", len(cands))
	}
}

func TestGeonamesResolver(t *testing.T) {
	w := world(t)
	r := NewGeonamesResolver(w.Store)
	cands := r.ResolveTerm("Turin", "en", 8)
	if len(cands) != 1 {
		t.Fatalf("geonames candidates = %v", cands)
	}
	if cands[0].Graph != lod.GeonamesGraph {
		t.Fatalf("graph = %s", cands[0].Graph)
	}
	// Geonames has no landmark entries.
	if got := r.ResolveTerm("Mole Antonelliana", "it", 8); len(got) != 0 {
		t.Fatalf("geonames should not know landmarks: %v", got)
	}
}

func TestSindiceReturnsCrossGraphNoise(t *testing.T) {
	w := world(t)
	r := NewSindiceResolver(w.Store)
	cands := r.ResolveTerm("Turin", "en", 50)
	graphs := map[string]bool{}
	for _, c := range cands {
		graphs[c.Graph] = true
	}
	// Sindice sees DBpedia and Geonames at least ("Turin" label in
	// both), proving candidates refer to various ontologies.
	if !graphs[lod.DBpediaGraph] || !graphs[lod.GeonamesGraph] {
		t.Fatalf("graphs = %v", graphs)
	}
	// Fuzzy matching surfaces junk: "Turin Tower 3"-style tourism POIs
	// share the first token.
	if len(cands) < 3 {
		t.Fatalf("expected noisy results, got %d", len(cands))
	}
}

func TestEvriSpotsMultiwordEntities(t *testing.T) {
	w := world(t)
	r := NewEvriResolver(w.Store)
	cands := r.ResolveText("Tramonto sulla Mole Antonelliana", "it", 8)
	found := false
	for _, c := range cands {
		if c.Resource.Value() == lod.DBpediaResource+"Mole_Antonelliana" {
			found = true
			if c.Word != "mole antonelliana" {
				t.Errorf("matched span = %q", c.Word)
			}
		}
	}
	if !found {
		t.Fatalf("Mole Antonelliana not spotted: %+v", cands)
	}
}

func TestZemantaSpotsAcrossGraphs(t *testing.T) {
	w := world(t)
	r := NewZemantaResolver(w.Store)
	cands := r.ResolveText("dinner near the Eiffel Tower in Paris", "en", 10)
	var sawEiffel, sawParis bool
	for _, c := range cands {
		switch c.Resource.Value() {
		case lod.DBpediaResource + "Eiffel_Tower":
			sawEiffel = true
		case lod.DBpediaResource + "Paris":
			sawParis = true
		}
	}
	if !sawEiffel || !sawParis {
		t.Fatalf("eiffel=%v paris=%v in %+v", sawEiffel, sawParis, cands)
	}
}

// TestCandidatesIndependentOfInsertionOrder: which of a resource's
// language labels a resolver scores must not depend on the order the
// label quads reached the store (ids, hence index scan order, follow
// insertion order). "Louvre" scores 1.0 against the English label and
// below the §2.2 0.8 cut against the French one, so keeping whichever
// label the scan met first made annotation boot-dependent.
func TestCandidatesIndependentOfInsertionOrder(t *testing.T) {
	label := rdf.NewIRI(rdf.RDFSLabel)
	dbp, gn := rdf.NewIRI(lod.DBpediaGraph), rdf.NewIRI(lod.GeonamesGraph)
	louvre := rdf.NewIRI(lod.DBpediaResource + "Louvre")
	lens := rdf.NewIRI("http://sws.geonames.org/2998324/")
	quads := []rdf.Quad{
		{S: louvre, P: label, O: rdf.NewLangLiteral("Musée du Louvre", "fr"), G: dbp},
		{S: louvre, P: label, O: rdf.NewLangLiteral("Louvre", "en"), G: dbp},
		{S: louvre, P: label, O: rdf.NewLangLiteral("Louvre Museum", "de"), G: dbp},
		{S: lens, P: label, O: rdf.NewLiteral("Louvre-Lens"), G: gn},
		{S: lens, P: label, O: rdf.NewLiteral("Louvre"), G: gn},
	}
	build := func(reverse bool) *Broker {
		st := store.New()
		for i := range quads {
			if reverse {
				i = len(quads) - 1 - i
			}
			st.MustAdd(quads[i])
		}
		return DefaultBroker(st)
	}
	fwd, rev := build(false), build(true)
	for i, r := range fwd.term {
		a, b := r.ResolveTerm("Louvre", "fr", 8), rev.term[i].ResolveTerm("Louvre", "fr", 8)
		if len(a) == 0 || !reflect.DeepEqual(a, b) {
			t.Errorf("%s: candidates depend on insertion order:\n  forward: %+v\n  reverse: %+v", r.Name(), a, b)
		}
	}
	for i, r := range fwd.text {
		a, b := r.ResolveText("Une visite au Louvre", "fr", 8), rev.text[i].ResolveText("Une visite au Louvre", "fr", 8)
		if len(a) == 0 || !reflect.DeepEqual(a, b) {
			t.Errorf("%s: candidates depend on insertion order:\n  forward: %+v\n  reverse: %+v", r.Name(), a, b)
		}
	}
	// And the label kept is the one that scores best against the term.
	if got := fwd.term[0].ResolveTerm("Louvre", "fr", 8); got[0].Label != "Louvre" || got[0].Score < 0.95 {
		t.Errorf("dbpedia kept %q (score %.2f), want the exact label", got[0].Label, got[0].Score)
	}
}

func TestBrokerMergesAndDedupes(t *testing.T) {
	w := world(t)
	b := DefaultBroker(w.Store)
	cands := b.ResolveTerm(context.Background(), "Turin", "en")
	seen := map[string]bool{}
	for _, c := range cands {
		if seen[c.Resource.Value()] {
			t.Fatalf("duplicate resource %s", c.Resource.Value())
		}
		seen[c.Resource.Value()] = true
	}
	// Both the DBpedia and the Geonames resource must be present.
	if !seen[lod.DBpediaResource+"Turin"] {
		t.Fatal("DBpedia Turin missing from merged candidates")
	}
	foundGN := false
	for res := range seen {
		if GraphOf(rdf.NewIRI(res)) == lod.GeonamesGraph {
			foundGN = true
		}
	}
	if !foundGN {
		t.Fatal("Geonames resource missing from merged candidates")
	}
	// Sorted by score descending.
	for i := 1; i < len(cands); i++ {
		if cands[i].Score > cands[i-1].Score {
			t.Fatal("candidates not sorted by score")
		}
	}
}

func TestBrokerWithoutResolverAblation(t *testing.T) {
	w := world(t)
	b := DefaultBroker(w.Store)
	nb := b.WithoutResolver("geonames")
	if len(nb.TermResolvers()) != len(b.TermResolvers())-1 {
		t.Fatalf("resolver not removed: %v", nb.TermResolvers())
	}
	for _, c := range nb.ResolveTerm(context.Background(), "Turin", "en") {
		if c.Resolver == "geonames" {
			t.Fatal("ablated resolver still answering")
		}
	}
	// Text resolvers unaffected.
	if len(nb.TextResolvers()) != len(b.TextResolvers()) {
		t.Fatal("text resolvers changed")
	}
}

func TestBrokerEmptyQueries(t *testing.T) {
	w := world(t)
	b := DefaultBroker(w.Store)
	if got := b.ResolveTerm(context.Background(), "", "en"); len(got) != 0 {
		t.Fatalf("empty term resolved: %v", got)
	}
	if got := b.ResolveTerm(context.Background(), "zzzzzz-no-such-entity", "en"); len(got) != 0 {
		t.Fatalf("nonsense term resolved: %v", got)
	}
}

func TestPerResolverLimitHonored(t *testing.T) {
	w := world(t)
	b := DefaultBroker(w.Store)
	b.PerResolverLimit = 1
	cands := b.ResolveTerm(context.Background(), "Turin", "en")
	// 3 term resolvers, 1 candidate each, minus dedup overlap.
	if len(cands) > 3 {
		t.Fatalf("limit not applied: %d candidates", len(cands))
	}
}

func BenchmarkBrokerResolveTerm(b *testing.B) {
	w := lod.Generate(lod.DefaultConfig())
	br := DefaultBroker(w.Store)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br.ResolveTerm(context.Background(), "Turin", "en")
	}
}

func BenchmarkEvriResolveText(b *testing.B) {
	w := lod.Generate(lod.DefaultConfig())
	r := NewEvriResolver(w.Store)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.ResolveText("Tramonto sulla Mole Antonelliana a Torino", "it", 8)
	}
}

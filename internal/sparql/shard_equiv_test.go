package sparql

import (
	"fmt"
	"testing"

	"lodify/internal/rdf"
	"lodify/internal/store"
)

// Cross-shard equivalence: the engine must produce identical solution
// multisets on a single-shard (legacy) store and a multi-shard store
// holding the same data — across wildcard-graph scans, ORDER BY over
// shard-merged rows, DISTINCT/MINUS, and both the sequential and
// parallel BGP paths.

// shardEquivStore populates st with a multi-graph corpus: each user's
// posts live in their own named graph (so graphs split across shards),
// typing and social triples in the default graph.
func shardEquivStore(st *store.Store) *store.Store {
	typ := rdf.NewIRI(rdf.RDFType)
	person := rdf.NewIRI(nsFOAF + "Person")
	post := rdf.NewIRI(nsSIOCT + "MicroblogPost")
	name := rdf.NewIRI(nsFOAF + "name")
	maker := rdf.NewIRI(nsFOAF + "maker")
	knows := rdf.NewIRI(nsFOAF + "knows")
	rating := rdf.NewIRI(nsREV + "rating")
	tagP := exIRI("p/tag")

	add := func(s, p, o, g rdf.Term) {
		if _, err := st.Add(rdf.Quad{S: s, P: p, O: o, G: g}); err != nil {
			panic(err)
		}
	}
	user := func(i int) rdf.Term { return rdf.NewIRI(nsEX + fmt.Sprintf("user/%d", i)) }
	graph := func(i int) rdf.Term { return rdf.NewIRI(nsEX + fmt.Sprintf("graph/u%d", i)) }
	const users, posts = 12, 6
	for i := 0; i < users; i++ {
		u := user(i)
		add(u, typ, person, rdf.Term{})
		add(u, name, rdf.NewLiteral(fmt.Sprintf("user %d", i)), rdf.Term{})
		add(u, knows, user((i+3)%users), rdf.Term{})
		for j := 0; j < posts; j++ {
			c := rdf.NewIRI(nsEX + fmt.Sprintf("content/%d-%d", i, j))
			g := graph(i)
			add(c, typ, post, g)
			add(c, maker, u, g)
			add(c, rating, rdf.NewTypedLiteral(fmt.Sprint(j%5+1), rdf.XSDInteger), g)
			add(c, tagP, rdf.NewIRI(nsEX+fmt.Sprintf("tag/%d", (i+j)%4)), g)
		}
	}
	return st
}

// shardEquivQueries stress shard-merged row streams: wildcard-graph
// scans binding ?g, ORDER BY over rows from many shards, DISTINCT and
// MINUS over merged intermediates, aggregation, and property paths.
var shardEquivQueries = []string{
	`SELECT ?g ?c WHERE { GRAPH ?g { ?c a sioct:MicroblogPost } } ORDER BY ?g ?c`,
	`SELECT ?c ?r WHERE { GRAPH ?g { ?c rev:rating ?r } } ORDER BY DESC(?r) ?c`,
	`SELECT DISTINCT ?tag WHERE { GRAPH ?g { ?c <http://ex.org/p/tag> ?tag } } ORDER BY ?tag`,
	`SELECT ?c WHERE {
	  GRAPH ?g { ?c foaf:maker ?u . ?c rev:rating ?r }
	  MINUS { GRAPH ?g2 { ?c <http://ex.org/p/tag> <http://ex.org/tag/1> } }
	}`,
	`SELECT ?u (COUNT(?c) AS ?n) WHERE {
	  ?u a foaf:Person .
	  GRAPH ?g { ?c foaf:maker ?u }
	} GROUP BY ?u ORDER BY DESC(?n) ?u`,
	`SELECT ?u ?v ?c WHERE {
	  ?u foaf:knows ?v .
	  GRAPH ?g { ?c foaf:maker ?v }
	}`,
	// Property paths: every operator, bound and wild endpoints, a
	// closure over the knows cycle, and paths under both GRAPH forms.
	`SELECT ?v ?u WHERE { ?v ^foaf:knows ?u }`,
	`SELECT ?c ?v WHERE { ?c foaf:maker/foaf:knows ?v }`,
	`SELECT ?c ?x WHERE { ?c foaf:maker|rev:rating ?x }`,
	`SELECT ?x WHERE { <http://ex.org/user/0> foaf:knows? ?x }`,
	`SELECT ?x WHERE { <http://ex.org/user/0> foaf:knows+ ?x }`,
	`SELECT ?x WHERE { ?x foaf:knows+ <http://ex.org/user/0> }`,
	`SELECT ?a ?b WHERE { ?a foaf:name "user 1" . ?a foaf:knows* ?b }`,
	`SELECT ?a ?b WHERE { ?a foaf:knows+ ?b }`,
	`SELECT ?c ?v WHERE { GRAPH <http://ex.org/graph/u2> { ?c foaf:maker/^foaf:maker ?v } }`,
	`SELECT ?g ?c ?u WHERE { GRAPH ?g { ?c (foaf:maker|rev:rating)? ?u } }`,
}

func TestShardedQueryEquivalence(t *testing.T) {
	st1 := shardEquivStore(store.NewSharded(1))
	st8 := shardEquivStore(store.NewSharded(8))
	if st1.Len() != st8.Len() {
		t.Fatalf("store sizes differ: %d vs %d", st1.Len(), st8.Len())
	}
	e1, e8 := NewEngine(st1), NewEngine(st8)
	for _, src := range shardEquivQueries {
		q, err := Parse(benchPrefixes + src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		for _, mode := range []struct {
			name               string
			threshold, workers int
		}{
			{"sequential", 1 << 30, 1},
			{"parallel", 1, 4},
		} {
			setParallel(t, mode.threshold, mode.workers)
			r1, err := e1.Exec(q)
			if err != nil {
				t.Fatalf("%s single-shard exec %q: %v", mode.name, src, err)
			}
			r8, err := e8.Exec(q)
			if err != nil {
				t.Fatalf("%s sharded exec %q: %v", mode.name, src, err)
			}
			s1, s8 := canonSolutions(r1.Solutions), canonSolutions(r8.Solutions)
			if len(s1) != len(s8) {
				t.Fatalf("%s query %q: single-shard %d solutions, sharded %d",
					mode.name, src, len(s1), len(s8))
			}
			for i := range s1 {
				if s1[i] != s8[i] {
					t.Fatalf("%s query %q: solution %d differs:\n  1-shard: %s\n  8-shard: %s",
						mode.name, src, i, s1[i], s8[i])
				}
			}
			if len(s1) == 0 {
				t.Fatalf("%s query %q produced no solutions; test is vacuous", mode.name, src)
			}
			// Explicit ORDER BY queries must agree row-for-row in stream
			// order too, not just as multisets.
			if q.OrderBy != nil {
				for i := range r1.Solutions {
					a, b := canonSolutions(r1.Solutions[i:i+1]), canonSolutions(r8.Solutions[i:i+1])
					if a[0] != b[0] {
						t.Fatalf("query %q: ORDER BY row %d differs:\n  1-shard: %s\n  8-shard: %s",
							src, i, a[0], b[0])
					}
				}
			}
		}
	}
}

// TestShardedMatchesReference runs the naive term-space reference
// evaluator against a multi-shard store: the sharded Match fan-out
// must feed it the same quads the engine's leased ID scans see. Beside
// the bare-BGP shapes it covers every corpus query the reference can
// express — here also the wildcard-graph GRAPH ?g scans — sequential
// and parallel.
func TestShardedMatchesReference(t *testing.T) {
	st := shardEquivStore(store.NewSharded(8))
	queries := append(append(append([]string{}, refBGPQueries...), equivalenceQueries...), shardEquivQueries...)
	for _, mode := range []struct {
		name               string
		threshold, workers int
	}{
		{"sequential", 1 << 30, 1},
		{"parallel", 1, 4},
	} {
		setParallel(t, mode.threshold, mode.workers)
		checked, nonVacuous := checkAgainstReference(t, mode.name, st, queries)
		// 4 bare BGPs + 4 equivalence shapes + 4 GRAPH ?g shapes; the
		// rest use MINUS, VALUES or aggregates.
		if checked != 12 || nonVacuous != checked {
			t.Fatalf("%s: %d queries checked, %d non-vacuous, want 12 of each", mode.name, checked, nonVacuous)
		}
	}
}

package sparql

import (
	"sync"
	"testing"
	"time"

	"lodify/internal/rdf"
	"lodify/internal/store"
)

// socialStore: a -> b -> c -> d knows-chain, plus labels.
func socialStore(t *testing.T) *store.Store {
	st := store.New()
	knows := rdf.NewIRI(nsFOAF + "knows")
	name := rdf.NewIRI(nsFOAF + "name")
	chain := []string{"a", "b", "c", "d"}
	for i := 0; i+1 < len(chain); i++ {
		addT(t, st, exIRI(chain[i]), knows, exIRI(chain[i+1]))
	}
	for _, u := range chain {
		addT(t, st, exIRI(u), name, rdf.NewLiteral(u))
	}
	return st
}

const pathPrefixes = `PREFIX foaf: <http://xmlns.com/foaf/0.1/>
PREFIX ex: <http://ex.org/>
`

func TestPathSequence(t *testing.T) {
	st := socialStore(t)
	e := NewEngine(st)
	// friend-of-friend names: a->b->c gives "c"; b->c->d gives "d".
	res, err := e.Query(pathPrefixes + `
SELECT ?n WHERE { ex:a foaf:knows/foaf:knows/foaf:name ?n }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 1 || res.Solutions[0]["n"].Value() != "c" {
		t.Fatalf("solutions = %v", res.Solutions)
	}
}

func TestPathInverse(t *testing.T) {
	st := socialStore(t)
	e := NewEngine(st)
	res, err := e.Query(pathPrefixes + `
SELECT ?who WHERE { ex:b ^foaf:knows ?who }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 1 || res.Solutions[0]["who"] != exIRI("a") {
		t.Fatalf("solutions = %v", res.Solutions)
	}
}

func TestPathAlternative(t *testing.T) {
	st := store.New()
	addT(t, st, exIRI("x"), rdf.NewIRI(nsEX+"p"), rdf.NewLiteral("viaP"))
	addT(t, st, exIRI("x"), rdf.NewIRI(nsEX+"q"), rdf.NewLiteral("viaQ"))
	addT(t, st, exIRI("x"), rdf.NewIRI(nsEX+"r"), rdf.NewLiteral("viaR"))
	e := NewEngine(st)
	res, err := e.Query(pathPrefixes + `
SELECT ?v WHERE { ex:x ex:p|ex:q ?v } ORDER BY ?v`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 2 {
		t.Fatalf("solutions = %v", res.Solutions)
	}
}

func TestPathOneOrMore(t *testing.T) {
	st := socialStore(t)
	e := NewEngine(st)
	res, err := e.Query(pathPrefixes + `
SELECT ?who WHERE { ex:a foaf:knows+ ?who } ORDER BY ?who`)
	if err != nil {
		t.Fatal(err)
	}
	// transitive closure: b, c, d.
	if len(res.Solutions) != 3 {
		t.Fatalf("solutions = %v", res.Solutions)
	}
	if res.Solutions[0]["who"] != exIRI("b") || res.Solutions[2]["who"] != exIRI("d") {
		t.Fatalf("order = %v", res.Solutions)
	}
}

func TestPathZeroOrMoreIncludesSelf(t *testing.T) {
	st := socialStore(t)
	e := NewEngine(st)
	res, err := e.Query(pathPrefixes + `
SELECT ?who WHERE { ex:a foaf:knows* ?who } ORDER BY ?who`)
	if err != nil {
		t.Fatal(err)
	}
	// a itself plus b, c, d.
	if len(res.Solutions) != 4 || res.Solutions[0]["who"] != exIRI("a") {
		t.Fatalf("solutions = %v", res.Solutions)
	}
}

func TestPathZeroOrOne(t *testing.T) {
	st := socialStore(t)
	e := NewEngine(st)
	res, err := e.Query(pathPrefixes + `
SELECT ?who WHERE { ex:a foaf:knows? ?who } ORDER BY ?who`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 2 { // a (zero) and b (one)
		t.Fatalf("solutions = %v", res.Solutions)
	}
}

func TestPathClosureOnCycle(t *testing.T) {
	st := store.New()
	knows := rdf.NewIRI(nsFOAF + "knows")
	addT(t, st, exIRI("a"), knows, exIRI("b"))
	addT(t, st, exIRI("b"), knows, exIRI("a")) // cycle
	e := NewEngine(st)
	res, err := e.Query(pathPrefixes + `
SELECT ?who WHERE { ex:a foaf:knows+ ?who } ORDER BY ?who`)
	if err != nil {
		t.Fatal(err)
	}
	// a (via the cycle) and b; no infinite loop.
	if len(res.Solutions) != 2 {
		t.Fatalf("solutions = %v", res.Solutions)
	}
}

func TestPathBackwardFromObject(t *testing.T) {
	st := socialStore(t)
	e := NewEngine(st)
	res, err := e.Query(pathPrefixes + `
SELECT ?who WHERE { ?who foaf:knows+ ex:d } ORDER BY ?who`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 3 { // a, b, c all reach d
		t.Fatalf("solutions = %v", res.Solutions)
	}
}

func TestPathGroupingAndMix(t *testing.T) {
	st := socialStore(t)
	e := NewEngine(st)
	res, err := e.Query(pathPrefixes + `
SELECT ?n WHERE { ex:a (foaf:knows/foaf:knows)+ ?x . ?x foaf:name ?n } ORDER BY ?n`)
	if err != nil {
		t.Fatal(err)
	}
	// (knows/knows)+ from a: c (2 hops), then c->? 2 more hops is past d. So just c.
	if len(res.Solutions) != 1 || res.Solutions[0]["n"].Value() != "c" {
		t.Fatalf("solutions = %v", res.Solutions)
	}
}

func TestPathBothEndpointsBound(t *testing.T) {
	st := socialStore(t)
	e := NewEngine(st)
	res, err := e.Query(pathPrefixes + `ASK { ex:a foaf:knows+ ex:d }`)
	if err != nil || !res.Bool {
		t.Fatalf("a + d = %v, %v", res, err)
	}
	res, err = e.Query(pathPrefixes + `ASK { ex:d foaf:knows+ ex:a }`)
	if err != nil || res.Bool {
		t.Fatalf("d + a = %v, %v", res, err)
	}
}

func TestPathSocialDistanceUseCase(t *testing.T) {
	// The platform use case: extend the §2.3 social filter to
	// friends-of-friends with foaf:knows+ — impossible with triple
	// tags, one character with paths.
	st := store.New()
	knows := rdf.NewIRI(nsFOAF + "knows")
	name := rdf.NewIRI(nsFOAF + "name")
	maker := rdf.NewIRI(nsFOAF + "maker")
	addT(t, st, exIRI("u/oscar"), name, rdf.NewLiteral("oscar"))
	addT(t, st, exIRI("u/walter"), knows, exIRI("u/oscar"))
	addT(t, st, exIRI("u/carmen"), knows, exIRI("u/walter")) // 2 hops from oscar
	addT(t, st, exIRI("pic/1"), maker, exIRI("u/carmen"))
	e := NewEngine(st)

	// Direct friends only: no result.
	res, _ := e.Query(pathPrefixes + `
SELECT ?pic WHERE { ?pic foaf:maker ?u . ?oscar foaf:name "oscar" . ?u foaf:knows ?oscar }`)
	if len(res.Solutions) != 0 {
		t.Fatalf("direct = %v", res.Solutions)
	}
	// Friends-of-friends: found.
	res, err := e.Query(pathPrefixes + `
SELECT ?pic WHERE { ?pic foaf:maker ?u . ?oscar foaf:name "oscar" . ?u foaf:knows+ ?oscar }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 1 || res.Solutions[0]["pic"] != exIRI("pic/1") {
		t.Fatalf("transitive = %v", res.Solutions)
	}
}

func TestPathDoesNotBreakPlainQueries(t *testing.T) {
	// Datatype literals (^^) still lex correctly next to path '^'.
	st := store.New()
	addT(t, st, exIRI("s"), exIRI("p"), rdf.NewTypedLiteral("5", rdf.XSDInteger))
	e := NewEngine(st)
	res, err := e.Query(`PREFIX ex: <http://ex.org/>
PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
SELECT ?s WHERE { ?s ex:p "5"^^xsd:integer }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 1 {
		t.Fatalf("solutions = %v", res.Solutions)
	}
}

// TestPathAbsentStartZeroLength: a start term the dictionary has never
// seen gets a query-local id; it can only produce its zero-length
// match and must never be scanned for.
func TestPathAbsentStartZeroLength(t *testing.T) {
	e := NewEngine(socialStore(t))
	for _, path := range []string{"foaf:knows*", "foaf:knows?"} {
		res, err := e.Query(pathPrefixes + `SELECT ?x WHERE { <urn:absent> ` + path + ` ?x }`)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Solutions) != 1 || res.Solutions[0]["x"] != rdf.NewIRI("urn:absent") {
			t.Fatalf("%s from an absent term = %v, want the zero-length match alone", path, res.Solutions)
		}
	}
	for _, path := range []string{"foaf:knows+", "foaf:knows/foaf:knows", "^foaf:knows|foaf:name"} {
		res, err := e.Query(pathPrefixes + `SELECT ?x WHERE { <urn:absent> ` + path + ` ?x }`)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Solutions) != 0 {
			t.Fatalf("%s from an absent term = %v, want nothing", path, res.Solutions)
		}
	}
	// An IRI predicate the store has never seen matches nothing either.
	res, err := e.Query(pathPrefixes + `SELECT ?x WHERE { ex:a (ex:nope/foaf:knows)|foaf:knows ?x }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 1 || res.Solutions[0]["x"] != exIRI("b") {
		t.Fatalf("unknown predicate arm = %v", res.Solutions)
	}
}

// TestPathInsideGraph: a path under GRAPH <g> hops only within g,
// GRAPH ?g evaluates it once per named graph, and a GRAPH naming a
// graph the store lacks still yields zero-length matches.
func TestPathInsideGraph(t *testing.T) {
	st := store.NewSharded(4)
	knows := rdf.NewIRI(nsFOAF + "knows")
	g1, g2 := exIRI("graph/1"), exIRI("graph/2")
	for _, q := range []rdf.Quad{
		{S: exIRI("a"), P: knows, O: exIRI("b"), G: g1},
		{S: exIRI("b"), P: knows, O: exIRI("c"), G: g1},
		{S: exIRI("c"), P: knows, O: exIRI("d"), G: g2},
		{S: exIRI("d"), P: knows, O: exIRI("e")},
	} {
		st.MustAdd(q)
	}
	e := NewEngine(st)
	values := func(src, v string) []string {
		t.Helper()
		res, err := e.Query(pathPrefixes + src)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, sol := range res.Solutions {
			out = append(out, sol[v].Value())
		}
		return out
	}
	eq := func(got []string, want ...string) bool {
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != nsEX+want[i] {
				return false
			}
		}
		return true
	}
	if got := values(`SELECT ?x WHERE { ex:a foaf:knows+ ?x } ORDER BY ?x`, "x"); !eq(got, "b", "c", "d", "e") {
		t.Fatalf("unrestricted closure = %v", got)
	}
	if got := values(`SELECT ?x WHERE { GRAPH <http://ex.org/graph/1> { ex:a foaf:knows+ ?x } } ORDER BY ?x`, "x"); !eq(got, "b", "c") {
		t.Fatalf("closure inside graph/1 = %v", got)
	}
	if got := values(`SELECT ?g WHERE { GRAPH ?g { ?s foaf:knows/foaf:knows ex:c } }`, "g"); !eq(got, "graph/1") {
		t.Fatalf("sequence under GRAPH ?g = %v", got)
	}
	if got := values(`SELECT ?x WHERE { GRAPH ?g { ex:c foaf:knows+ ?x } }`, "x"); !eq(got, "d") {
		t.Fatalf("closure under GRAPH ?g = %v", got)
	}
	if got := values(`SELECT ?x WHERE { GRAPH <http://ex.org/graph/none> { ex:a foaf:knows* ?x } }`, "x"); !eq(got, "a") {
		t.Fatalf("closure inside an absent graph = %v, want the zero-length match", got)
	}
}

// TestDescribeThroughBlankNodes: the bounded description follows
// blank-node objects transitively (cycles included) across shards and
// graphs, stops at IRIs, and skips targets the store has never seen.
func TestDescribeThroughBlankNodes(t *testing.T) {
	st := store.NewSharded(8)
	b1, b2 := rdf.NewBlank("b1"), rdf.NewBlank("b2")
	want := []rdf.Triple{
		{S: exIRI("x"), P: exIRI("p"), O: rdf.NewLiteral("1")},
		{S: exIRI("x"), P: exIRI("q"), O: b1},
		{S: b1, P: exIRI("r"), O: b2},
		{S: b1, P: exIRI("r"), O: exIRI("y")},
		{S: b2, P: exIRI("s"), O: b1},
	}
	for i, tr := range want {
		st.MustAdd(rdf.Quad{S: tr.S, P: tr.P, O: tr.O, G: exIRI("graph/" + string(rune('a'+i%3)))})
	}
	st.MustAdd(rdf.Quad{S: exIRI("y"), P: exIRI("p"), O: rdf.NewLiteral("3")})
	e := NewEngine(st)
	for _, src := range []string{
		`DESCRIBE <http://ex.org/x> <urn:absent>`,
		`DESCRIBE ?s WHERE { ?s <http://ex.org/p> "1" }`,
	} {
		res, err := e.Query(src)
		if err != nil {
			t.Fatal(err)
		}
		g := rdf.NewGraph()
		for _, tr := range want {
			g.Add(tr)
		}
		if len(res.Triples) != len(want) {
			t.Fatalf("%s: %d triples, want %d: %v", src, len(res.Triples), len(want), res.Triples)
		}
		for _, tr := range res.Triples {
			if !g.Has(tr) {
				t.Fatalf("%s: unexpected triple %v", src, tr)
			}
		}
	}
}

// TestPathClosureSeesOneCommittedState runs p+ queries against a
// writer that atomically flips the store between two states, each
// routing a to c through a different middle node. Every evaluation
// holds one lease, so it must reach c whichever state it sees — a hop
// per lock round could read a's edge from one state and the middle
// node's from the other. Run under -race; a lease that outlived its
// query would block the final write, and a write slipping under a held
// lease trips its epoch check.
func TestPathClosureSeesOneCommittedState(t *testing.T) {
	st := store.NewSharded(8)
	knows := rdf.NewIRI(nsFOAF + "knows")
	edge := func(s, o string) rdf.Quad { return rdf.Quad{S: exIRI(s), P: knows, O: exIRI(o)} }
	states := [2][]rdf.Quad{
		{edge("a", "b1"), edge("b1", "c")},
		{edge("a", "b2"), edge("b2", "c")},
	}
	for _, q := range states[0] {
		st.MustAdd(q)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	stopWriter := sync.OnceFunc(func() {
		close(stop)
		wg.Wait()
	})
	defer stopWriter()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for cur := 0; ; cur = 1 - cur {
			select {
			case <-stop:
				return
			default:
			}
			tx := st.Begin()
			for _, q := range states[cur] {
				if err := tx.Remove(q); err != nil {
					t.Error(err)
					return
				}
			}
			for _, q := range states[1-cur] {
				if err := tx.Add(q); err != nil {
					t.Error(err)
					return
				}
			}
			if _, _, err := tx.Commit(); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	e := NewEngine(st)
	q := mustParse(t, pathPrefixes+`SELECT ?x WHERE { ex:a foaf:knows+ ?x }`)
	for i := 0; i < 2000; i++ {
		res, err := e.Exec(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Solutions) != 2 {
			t.Fatalf("iteration %d: a reaches %v, want one middle node and c", i, res.Solutions)
		}
	}
	stopWriter()

	done := make(chan struct{})
	go func() {
		st.MustAdd(edge("c", "d"))
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("write blocked after the queries finished: a path lease leaked")
	}
}

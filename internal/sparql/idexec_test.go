package sparql

import (
	"sort"
	"strings"
	"testing"

	"lodify/internal/rdf"
	"lodify/internal/store"
)

// Equivalence tests for the id-space executor: the parallel BGP path
// must produce exactly what the sequential path produces, and the
// whole engine must agree with a naive term-space reference evaluator
// on BGP queries.

// canonSolutions renders a solution multiset in a canonical order so
// result sets compare structurally.
func canonSolutions(sols []Solution) []string {
	out := make([]string, len(sols))
	for i, sol := range sols {
		vars := make([]string, 0, len(sol))
		for v := range sol {
			vars = append(vars, v)
		}
		sort.Strings(vars)
		var b strings.Builder
		for _, v := range vars {
			b.WriteString(v)
			b.WriteString("=")
			b.WriteString(sol[v].String())
			b.WriteString(" ")
		}
		out[i] = b.String()
	}
	sort.Strings(out)
	return out
}

// setParallel pins the parallel-BGP tuning for the duration of a test.
func setParallel(t *testing.T, threshold, workers int) {
	t.Helper()
	savedT, savedW := bgpParallelThreshold, bgpMaxWorkers
	bgpParallelThreshold, bgpMaxWorkers = threshold, workers
	t.Cleanup(func() { bgpParallelThreshold, bgpMaxWorkers = savedT, savedW })
}

// equivalenceQueries exercise multi-row BGP inputs (so the parallel
// path actually fans out when the threshold allows), joins, DISTINCT,
// UNION, OPTIONAL, MINUS, VALUES, FILTER and ORDER BY.
var equivalenceQueries = []string{
	`SELECT ?c ?u ?r WHERE {
	  ?c a sioct:MicroblogPost .
	  ?c foaf:maker ?u .
	  ?c rev:rating ?r .
	}`,
	`SELECT DISTINCT ?tag WHERE {
	  <http://ex.org/user/0> foaf:knows ?u .
	  ?c foaf:maker ?u .
	  ?c <http://ex.org/p/tag> ?tag .
	}`,
	`SELECT ?c WHERE {
	  { ?c <http://ex.org/p/tag> <http://ex.org/tag/1> }
	  UNION
	  { ?c <http://ex.org/p/tag> <http://ex.org/tag/2> }
	}`,
	`SELECT ?u ?n WHERE {
	  ?u foaf:knows ?v .
	  OPTIONAL { ?v foaf:name ?n }
	  FILTER(STRSTARTS(STR(?u), "http://ex.org/user/1"))
	}`,
	`SELECT ?c ?r WHERE {
	  VALUES ?u { <http://ex.org/user/1> <http://ex.org/user/2> <http://ex.org/user/3> }
	  ?c foaf:maker ?u .
	  ?c rev:rating ?r .
	  MINUS { ?c rev:rating 3 }
	}`,
	`SELECT ?u (COUNT(?c) AS ?n) WHERE {
	  ?c foaf:maker ?u .
	  ?c rev:rating 5 .
	} GROUP BY ?u HAVING (COUNT(?c) > 9) ORDER BY DESC(?n) ?u`,
}

// TestParallelBGPMatchesSequential runs every equivalence query with
// the parallel fan-out forced on (threshold 1) and forced off, and
// requires identical solution multisets.
func TestParallelBGPMatchesSequential(t *testing.T) {
	e := NewEngine(benchStore())
	for _, src := range equivalenceQueries {
		q, err := Parse(benchPrefixes + src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}

		setParallel(t, 1<<30, 1) // sequential only
		seqRes, err := e.Exec(q)
		if err != nil {
			t.Fatalf("sequential exec: %v", err)
		}

		setParallel(t, 1, 4) // every multi-row BGP goes parallel
		parRes, err := e.Exec(q)
		if err != nil {
			t.Fatalf("parallel exec: %v", err)
		}

		seq, par := canonSolutions(seqRes.Solutions), canonSolutions(parRes.Solutions)
		if len(seq) != len(par) {
			t.Fatalf("query %q: sequential %d solutions, parallel %d", src, len(seq), len(par))
		}
		for i := range seq {
			if seq[i] != par[i] {
				t.Fatalf("query %q: solution %d differs:\n  seq: %s\n  par: %s", src, i, seq[i], par[i])
			}
		}
		if len(seq) == 0 {
			t.Fatalf("query %q produced no solutions; test is vacuous", src)
		}
	}
}

// refEvalBGP is a deliberately naive term-space BGP evaluator: no
// selectivity ordering, no dictionary ids, nested-loop extension in
// pattern order over Store.Match (graph zero = any graph). It is the
// reference the id-space executor must match.
func refEvalBGP(st *store.Store, graph rdf.Term, patterns []TriplePattern, sol Solution) []Solution {
	if len(patterns) == 0 {
		return []Solution{sol}
	}
	tp := patterns[0]
	get := func(pt PatternTerm) rdf.Term {
		if pt.IsVar() {
			return sol[pt.Var]
		}
		if pt.Term.IsBlank() {
			return rdf.Term{}
		}
		return pt.Term
	}
	var out []Solution
	st.Match(get(tp.S), get(tp.P), get(tp.O), graph, func(q rdf.Quad) bool {
		ext := make(Solution, len(sol)+3)
		for k, v := range sol {
			ext[k] = v
		}
		bind := func(pt PatternTerm, val rdf.Term) bool {
			if !pt.IsVar() {
				return true
			}
			if old, ok := ext[pt.Var]; ok {
				return old.Equal(val)
			}
			ext[pt.Var] = val
			return true
		}
		if bind(tp.S, q.S) && bind(tp.P, q.P) && bind(tp.O, q.O) {
			out = append(out, refEvalBGP(st, graph, patterns[1:], ext)...)
		}
		return true
	})
	return out
}

// refEval extends the naive evaluator from bare BGPs to the group
// algebra: nested groups, OPTIONAL, UNION, GRAPH and FILTER, folded
// left to right over map Solutions. Only FILTER expressions borrow
// engine code (ex.evalBool); no planner, ids, rows or leases are
// involved.
type refEval struct {
	st    *store.Store
	ex    *executor
	graph rdf.Term // GRAPH restriction; zero = any graph
}

func (r refEval) group(g *GroupPattern, in []Solution) []Solution {
	cur := in
	for _, child := range g.Children {
		cur = r.node(child, cur)
	}
	if len(g.Filters) == 0 {
		return cur
	}
	var out []Solution
next:
	for _, sol := range cur {
		for _, f := range g.Filters {
			if !r.ex.evalBool(f, sol) {
				continue next
			}
		}
		out = append(out, sol)
	}
	return out
}

func (r refEval) node(n PatternNode, in []Solution) []Solution {
	var out []Solution
	switch node := n.(type) {
	case *BGP:
		for _, sol := range in {
			out = append(out, refEvalBGP(r.st, r.graph, node.Triples, sol)...)
		}
	case *GroupPattern:
		return r.group(node, in)
	case *OptionalPattern:
		for _, sol := range in {
			if ext := r.group(node.Group, []Solution{sol}); len(ext) > 0 {
				out = append(out, ext...)
			} else {
				out = append(out, sol)
			}
		}
	case *UnionPattern:
		for _, br := range node.Branches {
			out = append(out, r.group(br, in)...)
		}
	case *GraphPattern:
		if !node.Graph.IsVar() {
			r.graph = node.Graph.Term
			return r.group(node.Group, in)
		}
		for _, g := range r.st.Graphs() {
			r.graph = g
			for _, sol := range in {
				if old, ok := sol[node.Graph.Var]; ok && !old.Equal(g) {
					continue
				}
				start := Solution{node.Graph.Var: g}
				for k, v := range sol {
					start[k] = v
				}
				out = append(out, r.group(node.Group, []Solution{start})...)
			}
		}
	}
	return out
}

// refExpressible reports whether the reference evaluator models every
// node under g: plain-pattern BGPs, groups, OPTIONAL, UNION, GRAPH and
// EXISTS-free filters.
func refExpressible(g *GroupPattern) bool {
	var hasExists func(e Expr) bool
	hasExists = func(e Expr) bool {
		switch v := e.(type) {
		case ExprExists:
			return true
		case ExprCall:
			for _, a := range v.Args {
				if hasExists(a) {
					return true
				}
			}
		}
		return false
	}
	for _, f := range g.Filters {
		if hasExists(f) {
			return false
		}
	}
	for _, child := range g.Children {
		ok := false
		switch node := child.(type) {
		case *BGP:
			ok = true
			for _, tp := range node.Triples {
				ok = ok && tp.Path == nil
			}
		case *GroupPattern:
			ok = refExpressible(node)
		case *OptionalPattern:
			ok = refExpressible(node.Group)
		case *GraphPattern:
			ok = refExpressible(node.Group)
		case *UnionPattern:
			ok = true
			for _, br := range node.Branches {
				ok = ok && refExpressible(br)
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// refEvalQuery evaluates a SELECT with the reference evaluator:
// WHERE tree, projection and DISTINCT. ORDER BY is ignored (callers
// compare multisets). ok=false when the query uses anything the
// reference does not model (aggregates, select expressions,
// LIMIT/OFFSET, paths, MINUS, VALUES, BIND, subqueries, EXISTS).
func refEvalQuery(st *store.Store, q *Query) (sols []Solution, ok bool) {
	if q.Form != FormSelect || q.Where == nil || queryUsesAggregates(q) || len(q.Binds) > 0 ||
		q.Limit >= 0 || q.Offset > 0 || !refExpressible(q.Where) {
		return nil, false
	}
	r := refEval{st: st, ex: &executor{st: st, dict: newLocalDict(st)}}
	vars := q.projectedVars()
	seen := map[string]bool{}
	for _, sol := range r.group(q.Where, []Solution{{}}) {
		pr := make(Solution, len(vars))
		for _, v := range vars {
			if t, bound := sol[v]; bound {
				pr[v] = t
			}
		}
		if q.Distinct || q.Reduced {
			key := canonSolutions([]Solution{pr})[0]
			if seen[key] {
				continue
			}
			seen[key] = true
		}
		sols = append(sols, pr)
	}
	return sols, true
}

// refBGPQueries are the bare-BGP shapes both reference suites run in
// addition to the equivalence corpus.
var refBGPQueries = []string{
	`SELECT * WHERE { ?u foaf:knows ?v . ?v foaf:name ?n . }`,
	`SELECT * WHERE { ?c foaf:maker ?u . ?c rev:rating ?r . ?u foaf:name ?n . }`,
	`SELECT * WHERE { ?c a sioct:MicroblogPost . ?c foaf:maker ?u . }`,
	`SELECT * WHERE { ?s ?p ?o . ?s a foaf:Person . }`,
}

// checkAgainstReference runs every query the reference evaluator can
// express and requires the engine's solution multiset to equal the
// reference's. It returns how many queries were compared and how many
// of those produced rows.
func checkAgainstReference(t *testing.T, name string, st *store.Store, queries []string) (checked, nonVacuous int) {
	t.Helper()
	e := NewEngine(st)
	for _, src := range queries {
		q, err := Parse(benchPrefixes + src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		want, ok := refEvalQuery(st, q)
		if !ok {
			continue
		}
		res, err := e.Exec(q)
		if err != nil {
			t.Fatalf("%s: exec %q: %v", name, src, err)
		}
		got, ref := canonSolutions(res.Solutions), canonSolutions(want)
		if len(got) != len(ref) {
			t.Fatalf("%s: query %q: engine %d solutions, reference %d", name, src, len(got), len(ref))
		}
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("%s: query %q: solution %d differs:\n  engine: %s\n  ref:    %s", name, src, i, got[i], ref[i])
			}
		}
		checked++
		if len(got) > 0 {
			nonVacuous++
		}
	}
	return checked, nonVacuous
}

// TestIDExecutionMatchesReference compares engine results against the
// naive reference evaluator: the bare-BGP shapes on both the paper
// fixture and the synthetic bench store, and every equivalence-corpus
// query the reference can express (BGP projections, DISTINCT, UNION,
// OPTIONAL + FILTER) on the bench store, none of them vacuous.
func TestIDExecutionMatchesReference(t *testing.T) {
	if checked, nonVacuous := checkAgainstReference(t, "paper", paperStore(t), refBGPQueries); checked != len(refBGPQueries) || nonVacuous != checked {
		t.Fatalf("paper: %d/%d BGP queries checked, %d non-vacuous", checked, len(refBGPQueries), nonVacuous)
	}
	queries := append(append([]string{}, refBGPQueries...), equivalenceQueries...)
	checked, nonVacuous := checkAgainstReference(t, "bench", benchStore(), queries)
	if want := len(refBGPQueries) + 4; checked != want || nonVacuous != want {
		t.Fatalf("bench: %d queries checked, %d non-vacuous, want %d of each", checked, nonVacuous, want)
	}
}

// TestLocalIDTermsJoinCorrectly checks that BIND/VALUES terms absent
// from the store dictionary behave correctly: equal computed terms
// compare equal (DISTINCT, joins) and never match store patterns.
func TestLocalIDTermsJoinCorrectly(t *testing.T) {
	st := paperStore(t)
	e := NewEngine(st)

	// Computed strings dedup across rows even though they are not in
	// the store dictionary.
	res, err := e.Query(prefixes + `
SELECT DISTINCT ?tag WHERE {
  ?u a foaf:Person .
  BIND(CONCAT("person-", "tag") AS ?tag)
}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 1 {
		t.Fatalf("distinct computed terms = %d solutions, want 1", len(res.Solutions))
	}

	// A VALUES term the store has never seen joins to nothing.
	res, err = e.Query(prefixes + `
SELECT ?n WHERE {
  VALUES ?u { <http://ex.org/user/nobody> }
  ?u foaf:name ?n .
}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 0 {
		t.Fatalf("unknown VALUES term matched %d solutions", len(res.Solutions))
	}

	// A VALUES mix of known and unknown terms keeps the known ones.
	res, err = e.Query(prefixes + `
SELECT ?n WHERE {
  VALUES ?u { <http://ex.org/user/nobody> <http://ex.org/user/oscar> }
  ?u foaf:name ?n .
}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 1 {
		t.Fatalf("mixed VALUES = %d solutions, want 1", len(res.Solutions))
	}
}

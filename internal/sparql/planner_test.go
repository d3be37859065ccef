package sparql

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"lodify/internal/rdf"
	"lodify/internal/store"
)

// Planner tests: every way a BGP can run — the DP plan, the all-scan
// order used above plannerMaxDP, and the step-at-a-time profiled run —
// must agree (and match the naive reference evaluator) on every query
// shape, plans must react to the live statistics (hash joins on
// cartesian edges, empty short-circuit on zero-count predicates,
// estimates from the maintained counts), and EXPLAIN ANALYZE must
// report mis-estimation factors per node.

// TestPlannerVariantsAgree runs the full equivalence corpus on 1- and
// 8-shard stores, sequential and parallel, through (a) the DP plan,
// (b) the all-scan order the planner emits when the DP declines and
// (c) the profiled step-at-a-time run, requiring identical solution
// multisets (row-identical under ORDER BY).
func TestPlannerVariantsAgree(t *testing.T) {
	queries := append(append([]string{}, equivalenceQueries...), shardEquivQueries...)
	dpBound := plannerMaxDP
	t.Cleanup(func() { plannerMaxDP = dpBound })
	for _, shards := range []int{1, 8} {
		st := shardEquivStore(store.NewSharded(shards))
		e := NewEngine(st)
		nonVacuous := 0
		for _, src := range queries {
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

				dres, err := e.Exec(q)
				if err != nil {
					t.Fatalf("dp %s exec %q: %v", mode.name, src, err)
				}
				plannerMaxDP = 0
				sres, err := e.Exec(q)
				plannerMaxDP = dpBound
				if err != nil {
					t.Fatalf("all-scan %s exec %q: %v", mode.name, src, err)
				}
				exp, err := e.Explain(context.Background(), benchPrefixes+src, true)
				if err != nil {
					t.Fatalf("profiled %s exec %q: %v", mode.name, src, err)
				}

				d := canonSolutions(dres.Solutions)
				for _, other := range []struct {
					name string
					sols []Solution
				}{
					{"all-scan", sres.Solutions},
					{"profiled", exp.Result.Solutions},
				} {
					o := canonSolutions(other.sols)
					if len(d) != len(o) {
						t.Fatalf("shards=%d %s query %q: dp %d solutions, %s %d",
							shards, mode.name, src, len(d), other.name, len(o))
					}
					for i := range d {
						if d[i] != o[i] {
							t.Fatalf("shards=%d %s query %q: solution %d differs:\n  dp: %s\n  %s: %s",
								shards, mode.name, src, i, d[i], other.name, o[i])
						}
					}
					if q.OrderBy != nil {
						for i := range dres.Solutions {
							a := canonSolutions(dres.Solutions[i : i+1])
							b := canonSolutions(other.sols[i : i+1])
							if a[0] != b[0] {
								t.Fatalf("shards=%d query %q: ORDER BY row %d differs:\n  dp: %s\n  %s: %s",
									shards, src, i, a[0], other.name, b[0])
							}
						}
					}
				}
				if len(d) > 0 {
					nonVacuous++
				}
			}
		}
		// The corpus mixes two fixtures, so a few queries may be empty
		// here; most must produce rows or the comparison proves nothing.
		if nonVacuous < 2*(len(queries)-2) {
			t.Fatalf("shards=%d: only %d/%d non-vacuous runs", shards, nonVacuous, 2*len(queries))
		}
	}
}

// TestCostPlannerMatchesReference checks bare-BGP queries against the
// naive term-space evaluator at 8 shards.
func TestCostPlannerMatchesReference(t *testing.T) {
	st := shardEquivStore(store.NewSharded(8))
	e := NewEngine(st)
	queries := []string{
		`SELECT * WHERE { ?u foaf:knows ?v . ?v foaf:name ?n . }`,
		`SELECT * WHERE { ?c foaf:maker ?u . ?c rev:rating ?r . ?u foaf:name ?n . }`,
		`SELECT * WHERE { ?s ?p ?o . ?s a foaf:Person . }`,
	}
	for _, src := range queries {
		q, err := Parse(benchPrefixes + src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		res, err := e.Exec(q)
		if err != nil {
			t.Fatalf("exec %q: %v", src, err)
		}
		bgp := q.Where.Children[0].(*BGP)
		want := refEvalBGP(st, rdf.Term{}, bgp.Triples, Solution{})
		got, ref := canonSolutions(res.Solutions), canonSolutions(want)
		if len(got) != len(ref) {
			t.Fatalf("query %q: engine %d solutions, reference %d", src, len(got), len(ref))
		}
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("query %q: solution %d differs:\n  engine: %s\n  ref:    %s", src, i, got[i], ref[i])
			}
		}
		if got == nil {
			t.Fatalf("query %q produced no solutions; test is vacuous", src)
		}
	}
}

// plannerShapeStore builds a corpus with deliberately skewed
// cardinalities: a 50-row knows-chain and name series, plus a 5-row
// disconnected tag class — small enough that a hash join must win the
// cartesian edge and a scan everything else.
func plannerShapeStore(t *testing.T, shards int) *store.Store {
	t.Helper()
	st := store.NewSharded(shards)
	name := rdf.NewIRI(nsFOAF + "name")
	knows := rdf.NewIRI(nsFOAF + "knows")
	typ := rdf.NewIRI(rdf.RDFType)
	tagClass := exIRI("Tag")
	add := func(s, p, o rdf.Term) {
		if _, err := st.Add(rdf.Quad{S: s, P: p, O: o}); err != nil {
			t.Fatal(err)
		}
	}
	user := func(i int) rdf.Term { return rdf.NewIRI(nsEX + fmt.Sprintf("user/%d", i)) }
	for i := 0; i < 50; i++ {
		add(user(i), name, rdf.NewLiteral(fmt.Sprintf("user %d", i)))
		add(user(i), knows, user((i+1)%50))
	}
	for j := 0; j < 5; j++ {
		add(rdf.NewIRI(nsEX+fmt.Sprintf("tag/%d", j)), typ, tagClass)
	}
	return st
}

// bgpChild finds the first BGP node of a static plan.
func bgpChild(t *testing.T, root *PlanNode) *PlanNode {
	t.Helper()
	var find func(n *PlanNode) *PlanNode
	find = func(n *PlanNode) *PlanNode {
		if n.Op == "bgp" {
			return n
		}
		for _, c := range n.Children {
			if got := find(c); got != nil {
				return got
			}
		}
		return nil
	}
	pn := find(root)
	if pn == nil {
		t.Fatalf("no bgp node in plan:\n%s", root.Text())
	}
	return pn
}

// TestPlanChoosesHashJoinForCartesianEdge verifies the DP defers a
// disconnected pattern to the end and joins it with a hash build
// rather than re-scanning it per intermediate row.
func TestPlanChoosesHashJoinForCartesianEdge(t *testing.T) {
	st := plannerShapeStore(t, 4)
	e := NewEngine(st)
	exp, err := e.Explain(context.Background(),
		benchPrefixes+`SELECT * WHERE { ?u foaf:knows ?v . ?v foaf:name ?n . ?t a <http://ex.org/Tag> }`,
		false)
	if err != nil {
		t.Fatal(err)
	}
	bgp := bgpChild(t, exp.Plan)
	if len(bgp.Children) != 3 {
		t.Fatalf("want 3 join steps, got %d:\n%s", len(bgp.Children), exp.Plan.Text())
	}
	last := bgp.Children[len(bgp.Children)-1]
	if last.Op != "hash-join" || !strings.Contains(last.Detail, "Tag") {
		t.Fatalf("want trailing hash-join on the Tag pattern, got %s [%s]:\n%s",
			last.Op, last.Detail, exp.Plan.Text())
	}
	for _, c := range bgp.Children[:2] {
		if c.Op != "scan" {
			t.Fatalf("want scan for connected edge, got %s [%s]:\n%s", c.Op, c.Detail, exp.Plan.Text())
		}
	}
	// 50 knows-rows x ~1 name each x 5 tags — the HLL distinct estimate
	// wobbles a little, so accept a band around 250.
	if bgp.EstRows < 200 || bgp.EstRows > 320 {
		t.Fatalf("BGP estRows = %d, want ≈250 (stats-driven)", bgp.EstRows)
	}
	// And the estimate must hold up at execution time.
	res, err := e.Exec(mustParse(t, benchPrefixes+`SELECT * WHERE { ?u foaf:knows ?v . ?v foaf:name ?n . ?t a <http://ex.org/Tag> }`))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 250 {
		t.Fatalf("got %d solutions, want 250", len(res.Solutions))
	}
}

// TestPlanStatisticsDrivenEstimates: a single-pattern BGP's estRows
// must equal the exact maintained predicate count, and constant
// subjects must divide by the distinct-subject estimate.
func TestPlanStatisticsDrivenEstimates(t *testing.T) {
	st := plannerShapeStore(t, 4)
	e := NewEngine(st)
	exp, err := e.Explain(context.Background(),
		benchPrefixes+`SELECT * WHERE { ?s foaf:name ?o }`, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := bgpChild(t, exp.Plan).EstRows; got != 50 {
		t.Fatalf("?s foaf:name ?o estRows = %d, want exact count 50", got)
	}
	exp, err = e.Explain(context.Background(),
		benchPrefixes+`SELECT * WHERE { <http://ex.org/user/0> foaf:name ?o } `, false)
	if err != nil {
		t.Fatal(err)
	}
	// 50 names / ~50 distinct subjects ≈ 1; the HLL estimate wobbles,
	// so accept a small band around it.
	if got := bgpChild(t, exp.Plan).EstRows; got < 1 || got > 3 {
		t.Fatalf("const-subject estRows = %d, want ≈1", got)
	}
}

// TestPlanEmptyShortCircuit: a predicate whose maintained count
// dropped back to zero must plan to an empty BGP (estRows 0, no
// steps) and execute to zero rows without error.
func TestPlanEmptyShortCircuit(t *testing.T) {
	st := plannerShapeStore(t, 4)
	gone := exIRI("p/gone")
	q := rdf.Quad{S: exIRI("s"), P: gone, O: exIRI("o")}
	if _, err := st.Add(q); err != nil {
		t.Fatal(err)
	}
	if !st.Remove(q) {
		t.Fatal("remove failed")
	}
	e := NewEngine(st)
	src := benchPrefixes + `SELECT * WHERE { ?s <http://ex.org/p/gone> ?o }`
	exp, err := e.Explain(context.Background(), src, false)
	if err != nil {
		t.Fatal(err)
	}
	bgp := bgpChild(t, exp.Plan)
	if bgp.EstRows != 0 || len(bgp.Children) != 0 {
		t.Fatalf("want empty plan (est 0, no steps), got est=%d steps=%d:\n%s",
			bgp.EstRows, len(bgp.Children), exp.Plan.Text())
	}
	res, err := e.Exec(mustParse(t, src))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 0 {
		t.Fatalf("got %d solutions from a removed predicate, want 0", len(res.Solutions))
	}
}

// TestExplainAnalyzeMissFactor: an ANALYZE run must attach per-node
// mis-estimation factors — ≈1.0 where the statistics are exact — in
// both the JSON document and the text rendering.
func TestExplainAnalyzeMissFactor(t *testing.T) {
	st := plannerShapeStore(t, 4)
	e := NewEngine(st)
	exp, err := e.Explain(context.Background(),
		benchPrefixes+`SELECT * WHERE { ?u foaf:knows ?v . ?v foaf:name ?n }`, true)
	if err != nil {
		t.Fatal(err)
	}
	bgp := bgpChild(t, exp.Plan)
	if bgp.EstRows < 40 || bgp.EstRows > 65 {
		t.Fatalf("analyzed BGP estRows = %d, want ≈50", bgp.EstRows)
	}
	if bgp.RowsOut != 50 {
		t.Fatalf("analyzed BGP rowsOut = %d, want 50", bgp.RowsOut)
	}
	if bgp.MissFactor < 1 || bgp.MissFactor > 1.5 {
		t.Fatalf("near-exact estimate must yield missFactor ≈1, got %v", bgp.MissFactor)
	}
	if len(bgp.Children) != 2 {
		t.Fatalf("want 2 step children under analyzed BGP, got %d:\n%s",
			len(bgp.Children), exp.Plan.Text())
	}
	for _, c := range bgp.Children {
		if c.EstRows <= 0 || c.MissFactor < 1 {
			t.Fatalf("step %s [%s]: est=%d miss=%v, want stats-driven est and miss ≥ 1",
				c.Op, c.Detail, c.EstRows, c.MissFactor)
		}
	}
	raw, err := json.Marshal(exp)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"missFactor"`) {
		t.Fatalf("ANALYZE JSON missing missFactor: %s", raw)
	}
	if txt := exp.Plan.Text(); !strings.Contains(txt, "miss=") {
		t.Fatalf("ANALYZE text missing miss= annotation:\n%s", txt)
	}
}

// TestPlannerFallsBackAboveMaxDP: BGPs above the DP bound must still
// answer correctly, through the all-scan greedy order — which static
// EXPLAIN shows as step children like any other plan.
func TestPlannerFallsBackAboveMaxDP(t *testing.T) {
	saved := plannerMaxDP
	plannerMaxDP = 2
	t.Cleanup(func() { plannerMaxDP = saved })
	st := plannerShapeStore(t, 4)
	e := NewEngine(st)
	src := benchPrefixes + `SELECT * WHERE { ?u foaf:knows ?v . ?v foaf:name ?n . ?u foaf:name ?m }`
	res, err := e.Exec(mustParse(t, src))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 50 {
		t.Fatalf("fallback path got %d solutions, want 50", len(res.Solutions))
	}
	exp, err := e.Explain(context.Background(), src, false)
	if err != nil {
		t.Fatal(err)
	}
	bgp := bgpChild(t, exp.Plan)
	if len(bgp.Children) != 3 || bgp.EstRows <= 0 {
		t.Fatalf("want 3 step children and an estimate above the DP bound, got %d est=%d:\n%s",
			len(bgp.Children), bgp.EstRows, exp.Plan.Text())
	}
	for _, c := range bgp.Children {
		if c.Op != "scan" || c.EstRows <= 0 {
			t.Fatalf("above the DP bound every step is an estimated scan, got %s est=%d:\n%s",
				c.Op, c.EstRows, exp.Plan.Text())
		}
	}
}

// TestPlannerWideFrame: variables in slots beyond the 64-bit planning
// domain only skew estimates — the BGP still plans (the real variables
// sort after 70 fillers, so every slot it binds is >= 64) and answers
// correctly.
func TestPlannerWideFrame(t *testing.T) {
	st := plannerShapeStore(t, 4)
	e := NewEngine(st)
	var filler strings.Builder
	for i := 0; i < 70; i += 2 {
		fmt.Fprintf(&filler, "?a%02d <http://ex.org/p/none> ?a%02d . ", i, i+1)
	}
	src := benchPrefixes + `SELECT * WHERE { ?u foaf:knows ?v . ?v foaf:name ?n . OPTIONAL { ` + filler.String() + `} }`
	exp, err := e.Explain(context.Background(), src, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Result.Solutions) != 50 {
		t.Fatalf("wide-frame BGP got %d solutions, want 50", len(exp.Result.Solutions))
	}
	if bgp := bgpChild(t, exp.Plan); len(bgp.Children) != 2 {
		t.Fatalf("want 2 planned steps in a %d-slot frame, got %d:\n%s", 73, len(bgp.Children), exp.Plan.Text())
	}
}

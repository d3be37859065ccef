package sparql

import (
	"regexp"
	"runtime"
	"sync/atomic"
	"time"

	"lodify/internal/obs/stats"
	"lodify/internal/rdf"
	"lodify/internal/store"
)

// Parallel BGP evaluation tuning (package vars so tests can pin them).
// A BGP whose input has at least bgpParallelThreshold rows fans out
// across up to bgpMaxWorkers goroutines, each with its own read lease;
// smaller inputs stay sequential so cheap queries pay no
// synchronization overhead. Output order is identical either way:
// workers own contiguous input chunks and results concatenate in chunk
// order.
var (
	bgpParallelThreshold = 64
	bgpMaxWorkers        = runtime.GOMAXPROCS(0)
)

// executor evaluates a parsed query against a store. Evaluation runs
// in id space (see rows.go): solutions are rows of dictionary ids laid
// out by ex.fr, and rdf.Terms appear only at expression and projection
// boundaries.
type executor struct {
	st         *store.Store
	regexCache map[string]*regexp.Regexp
	// graph restricts BGP matching when inside GRAPH <g> { }; zero
	// means "any graph" (default + named union, Virtuoso-style).
	graph rdf.Term
	// alg accumulates per-node evaluation counts for the query; nil
	// disables the accounting (bare executors in tests).
	alg *algCounters
	// dict assigns ids to query-computed terms; shared with
	// sub-executors so ids stay comparable across (sub)query scopes.
	dict *localDict
	// fr is the slot layout of the current (sub)query scope.
	fr *frame
	// rowsJoined counts rows produced by id-space BGP joins (updated
	// atomically: parallel workers add their chunk totals);
	// rowsMaterialized counts row→Solution materializations. Both are
	// flushed to the metrics registry once per query.
	rowsJoined       int64
	rowsMaterialized int64
	// prof, when non-nil, times every evalNode dispatch into a
	// plan-shaped tree (EXPLAIN ANALYZE / slow-query capture). Nil
	// keeps the hot path at one pointer check per node.
	prof *profiler
	// plans caches BGP plans per (syntax node, graph, input mask) for
	// this execution — OPTIONAL inner BGPs re-evaluate per input row
	// and must not re-plan (planner.go).
	plans map[planKey]*bgpPlan
	// obsStats feeds per-(predicate,graph) cardinality observations to
	// the planner statistics sink as BGPs evaluate; false (bare
	// executors in tests) disables collection.
	obsStats bool
}

// evalQuery runs the WHERE clause and applies solution modifiers,
// returning the projected solutions.
func (ex *executor) evalQuery(q *Query) ([]Solution, []string) {
	if ex.dict == nil {
		ex.dict = newLocalDict(ex.st)
	}
	ex.fr = queryFrame(q)
	input := []row{make(row, len(ex.fr.names))}
	rows := input
	if q.Where != nil {
		rows = ex.evalGroup(q.Where, input)
	}

	// Aggregation (GROUP BY / HAVING / set functions) replaces the
	// plain select-expression evaluation when present. Aggregates work
	// on materialized Solutions: this is an expression boundary.
	if queryUsesAggregates(q) {
		rows = ex.rowsFromSolutions(ex.evalAggregates(q, ex.solutionsFromRows(rows)))
	} else if len(q.Binds) > 0 {
		// Select expressions (expr AS ?var).
		for _, r := range rows {
			sol := ex.materialize(r)
			for _, b := range q.Binds {
				if t, err := ex.evalExpr(b.Expr, sol); err == nil {
					sol[b.Var] = t
					r[ex.fr.slots[b.Var]] = ex.dict.idOf(t)
				}
			}
		}
	}

	// ORDER BY before projection (keys may use unprojected vars).
	if len(q.OrderBy) > 0 {
		ex.sortRows(rows, q.OrderBy)
	}

	vars := q.projectedVars()
	projSlots := make([]int, len(vars))
	for i, v := range vars {
		projSlots[i] = ex.fr.slots[v]
	}

	// DISTINCT dedups on projected ids — no term rendering.
	if q.Distinct || q.Reduced {
		rows = distinctRows(rows, projSlots)
	}

	// OFFSET / LIMIT.
	if q.Offset > 0 {
		if q.Offset >= len(rows) {
			rows = nil
		} else {
			rows = rows[q.Offset:]
		}
	}
	if q.Limit >= 0 && len(rows) > q.Limit {
		rows = rows[:q.Limit]
	}

	// Final materialization: only the surviving rows, only the
	// projected slots.
	sols := make([]Solution, len(rows))
	for i, r := range rows {
		ex.rowsMaterialized++
		pr := make(Solution, len(vars))
		for j, v := range vars {
			if id := r[projSlots[j]]; id != 0 {
				pr[v] = ex.dict.termOf(id)
			}
		}
		sols[i] = pr
	}
	return sols, vars
}

// evalWhere evaluates a bare group pattern (UPDATE ... WHERE) and
// returns its solutions materialized.
func (ex *executor) evalWhere(g *GroupPattern) []Solution {
	if ex.dict == nil {
		ex.dict = newLocalDict(ex.st)
	}
	ex.fr = groupFrame(g)
	rows := ex.evalGroup(g, []row{make(row, len(ex.fr.names))})
	return ex.solutionsFromRows(rows)
}

// evalGroup folds the group's children left to right, then applies
// its filters (filters are an expression boundary: each surviving row
// is materialized once for all filters).
func (ex *executor) evalGroup(g *GroupPattern, input []row) []row {
	cur := input
	for _, child := range g.Children {
		if len(cur) == 0 {
			return nil
		}
		cur = ex.evalNode(child, cur)
	}
	if len(g.Filters) > 0 && len(cur) > 0 {
		out := cur[:0:0]
		for _, r := range cur {
			sol := ex.materialize(r)
			ok := true
			for _, f := range g.Filters {
				if !ex.evalBool(f, sol) {
					ok = false
					break
				}
			}
			if ok {
				out = append(out, r)
			}
		}
		cur = out
	}
	return cur
}

func (ex *executor) evalNode(n PatternNode, input []row) []row {
	if ex.prof == nil {
		out := ex.evalNodeInner(n, input)
		ex.alg.record(nodeKind(n), len(out))
		return out
	}
	pn := ex.prof.enter(n, len(input))
	start := time.Now()
	out := ex.evalNodeInner(n, input)
	ex.prof.exit(pn, time.Since(start), len(out), len(ex.fr.names))
	ex.alg.record(nodeKind(n), len(out))
	return out
}

func (ex *executor) evalNodeInner(n PatternNode, input []row) []row {
	switch node := n.(type) {
	case *BGP:
		return ex.evalBGP(node, input)
	case *GroupPattern:
		return ex.evalGroup(node, input)
	case *OptionalPattern:
		return ex.evalOptional(node, input)
	case *UnionPattern:
		var out []row
		for _, branch := range node.Branches {
			out = append(out, ex.evalGroup(branch, cloneRows(input))...)
		}
		return out
	case *MinusPattern:
		removed := ex.evalGroup(node.Group, []row{make(row, len(ex.fr.names))})
		var out []row
		for _, r := range input {
			excluded := false
			for _, rm := range removed {
				if sharesBound(r, rm) && compatibleRows(r, rm) {
					excluded = true
					break
				}
			}
			if !excluded {
				out = append(out, r)
			}
		}
		return out
	case *GraphPattern:
		return ex.evalGraph(node, input)
	case *SubQuery:
		sub := &executor{st: ex.st, regexCache: ex.regexCache, graph: ex.graph, alg: ex.alg, dict: ex.dict,
			prof: ex.prof, obsStats: ex.obsStats}
		subSols, _ := sub.evalQuery(node.Query)
		// rowsJoined is read atomically by concurrent observers (run's
		// cancellation watchdog); the sub-executor is private here, but
		// its field stays in the atomic domain for the same reason.
		atomic.AddInt64(&ex.rowsJoined, atomic.LoadInt64(&sub.rowsJoined))
		ex.rowsMaterialized += sub.rowsMaterialized
		return joinRowsHash(input, ex.rowsFromSolutions(subSols))
	case *BindPattern:
		slot := ex.fr.slots[node.Var]
		var out []row
		for _, r := range input {
			if r[slot] != 0 {
				continue // BIND on an already-bound var is an error; drop
			}
			if t, err := ex.evalExpr(node.Expr, ex.materialize(r)); err == nil {
				r[slot] = ex.dict.idOf(t)
			}
			out = append(out, r)
		}
		return out
	case *ValuesPattern:
		rows := make([]row, 0, len(node.Rows))
		for _, vr := range node.Rows {
			r := make(row, len(ex.fr.names))
			for i, v := range node.Vars {
				if i < len(vr) && !vr[i].IsZero() {
					if slot, ok := ex.fr.slots[v]; ok {
						r[slot] = ex.dict.idOf(vr[i])
					}
				}
			}
			rows = append(rows, r)
		}
		return joinRowsHash(input, rows)
	default:
		return nil
	}
}

func (ex *executor) evalOptional(node *OptionalPattern, input []row) []row {
	var out []row
	for _, r := range input {
		extended := ex.evalGroup(node.Group, []row{r.clone()})
		if len(extended) > 0 {
			out = append(out, extended...)
		} else {
			out = append(out, r)
		}
	}
	return out
}

func (ex *executor) evalGraph(node *GraphPattern, input []row) []row {
	if !node.Graph.IsVar() {
		saved := ex.graph
		ex.graph = node.Graph.Term
		out := ex.evalGroup(node.Group, input)
		ex.graph = saved
		return out
	}
	// GRAPH ?g: iterate the named graphs, binding ?g.
	slot := ex.fr.slots[node.Graph.Var]
	var out []row
	saved := ex.graph
	for _, g := range ex.st.Graphs() {
		ex.graph = g
		gid := ex.dict.idOf(g)
		for _, r := range input {
			if bound := r[slot]; bound != 0 && bound != gid {
				continue
			}
			start := r.clone()
			start[slot] = gid
			out = append(out, ex.evalGroup(node.Group, []row{start})...)
		}
	}
	ex.graph = saved
	return out
}

// cpTerm is one compiled pattern position: either a variable slot or a
// constant id (0 = wildcard, covering unbound positions and query
// blank nodes).
type cpTerm struct {
	slot int          // >= 0: variable slot; -1: constant
	id   store.TermID // constant id when slot < 0
}

type compiledPattern struct {
	s, p, o cpTerm
}

// compileBGP resolves the plain patterns' constant terms to dictionary
// ids once, up front. A constant the dictionary has never seen cannot
// match anything; ok=false reports that so the BGP short-circuits to
// zero solutions.
func (ex *executor) compileBGP(patterns []TriplePattern) ([]compiledPattern, bool) {
	conv := func(pt PatternTerm) (cpTerm, bool) {
		if pt.IsVar() {
			return cpTerm{slot: ex.fr.slots[pt.Var]}, true
		}
		if pt.Term.IsZero() || pt.Term.IsBlank() {
			return cpTerm{slot: -1}, true // bnode in query acts as wildcard
		}
		id, ok := ex.st.LookupID(pt.Term)
		if !ok {
			return cpTerm{}, false
		}
		return cpTerm{slot: -1, id: id}, true
	}
	out := make([]compiledPattern, len(patterns))
	for i, tp := range patterns {
		s, ok := conv(tp.S)
		if !ok {
			return nil, false
		}
		p, ok := conv(tp.P)
		if !ok {
			return nil, false
		}
		o, ok := conv(tp.O)
		if !ok {
			return nil, false
		}
		out[i] = compiledPattern{s: s, p: p, o: o}
	}
	return out, true
}

// graphID resolves the executor's current GRAPH restriction for the
// id-level calls; ok=false means the restriction graph does not exist.
func (ex *executor) graphID() (store.TermID, bool) {
	if ex.graph.IsZero() {
		return store.AnyGraph, true
	}
	return ex.st.LookupID(ex.graph)
}

// evalBGP joins the triple patterns against the store for every input
// row, entirely in id space. Plain patterns join first, in the
// planner's order; property-path patterns extend the result
// afterwards, when endpoint bindings are available.
func (ex *executor) evalBGP(bgp *BGP, input []row) []row {
	var plain, paths []TriplePattern
	for _, tp := range bgp.Triples {
		if tp.Path != nil {
			paths = append(paths, tp)
		} else {
			plain = append(plain, tp)
		}
	}
	cur := input
	if len(plain) > 0 {
		cp, okP := ex.compileBGP(plain)
		gid, okG := ex.graphID()
		if !okP || !okG {
			return nil
		}
		if ex.obsStats {
			ex.observePredCards(plain, cp, gid)
		}
		plan := ex.planBGP(bgp, cp, gid, len(cur), inputBoundMask(cur))
		cur = ex.execPlan(plan, plain, cp, gid, cur)
	}
	for _, tp := range paths {
		if len(cur) == 0 {
			return nil
		}
		cur = ex.evalPathPattern(tp, cur)
	}
	return cur
}

// observePredCards feeds the planner statistics sink: for every plain
// pattern with a constant predicate, the maintained per-(predicate,
// graph) count plus distinct-subject/object estimates, recorded
// straight into stats.Default (struct keys and in-place entry
// updates: no per-query allocation). PredStatIDs merges the per-shard
// series under shard read locks — cheaper than the CountIDs index
// walk this used to pay — and must not run under a held read lease;
// here it doesn't, leases are taken later inside execPlan.
func (ex *executor) observePredCards(plain []TriplePattern, cp []compiledPattern, gid store.TermID) {
	for i, tp := range plain {
		if tp.P.IsVar() || cp[i].p.slot >= 0 || cp[i].p.id == 0 {
			continue
		}
		ps := ex.st.PredStatIDs(cp[i].p.id, gid)
		stats.Default.ObserveCard(tp.P.Term.Value(), ex.graph.Value(),
			ps.Count, ps.DistinctS, ps.DistinctO)
	}
}

// resolve substitutes the current bindings into one pattern position,
// yielding the id to scan for (0 = wildcard).
func (ct cpTerm) resolve(cur row) store.TermID {
	if ct.slot >= 0 {
		return cur[ct.slot]
	}
	return ct.id
}

// resolveIDs yields the id triple to scan for under the current
// bindings.
func resolveIDs(p compiledPattern, cur row) (s, pr, o store.TermID) {
	return p.s.resolve(cur), p.p.resolve(cur), p.o.resolve(cur)
}

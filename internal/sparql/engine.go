package sparql

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"lodify/internal/obs"
	"lodify/internal/rdf"
	"lodify/internal/store"
)

// Engine executes SPARQL queries against a store. It is stateless and
// safe for concurrent use; each query run gets its own executor.
type Engine struct {
	st *store.Store
}

// NewEngine returns an engine over st.
func NewEngine(st *store.Store) *Engine { return &Engine{st: st} }

// Result is the outcome of a query. Exactly one of the three sections
// is meaningful depending on the query form.
type Result struct {
	Form QueryForm
	// SELECT
	Vars      []string
	Solutions []Solution
	// ASK
	Bool bool
	// CONSTRUCT / DESCRIBE
	Triples []rdf.Triple
}

// Query parses and executes a SPARQL query string.
func (e *Engine) Query(src string) (*Result, error) {
	return e.QueryCtx(context.Background(), src)
}

// QueryCtx is Query under a caller context: the execution span joins
// the context's trace, and slow queries are logged with its trace id.
func (e *Engine) QueryCtx(ctx context.Context, src string) (*Result, error) {
	q, err := Parse(src)
	if err != nil {
		mParseErrors.Inc()
		return nil, err
	}
	return e.ExecCtx(ctx, q)
}

// Exec executes a parsed query, recording query latency, the solution
// count and per-algebra-node cardinalities in the Default registry.
func (e *Engine) Exec(q *Query) (*Result, error) {
	return e.ExecCtx(context.Background(), q)
}

// ExecCtx is Exec under a caller context. Plan profiling activates
// automatically while the slow-query log is enabled, so every capture
// carries its profile tree; otherwise queries run unprofiled.
func (e *Engine) ExecCtx(ctx context.Context, q *Query) (*Result, error) {
	res, _, err := e.run(ctx, q, obs.SlowQueries.Enabled())
	return res, err
}

// run is the shared execution core behind ExecCtx and Explain.
func (e *Engine) run(ctx context.Context, q *Query, profile bool) (*Result, *profiler, error) {
	// The engine contributes a child span only to an existing trace
	// (the HTTP middleware roots one per request): untraced library
	// calls — benchmarks, batch jobs — pay no span bookkeeping.
	var sp *obs.Span
	if obs.TraceID(ctx) != "" {
		ctx, sp = obs.StartSpan(ctx, "sparql "+formName(q.Form))
	}
	start := time.Now()
	// Cardinality observation rides the profiling switch: a server with
	// the slow-query log armed feeds the planner statistics sink on
	// every query, while unprofiled library calls skip the per-pattern
	// wildcard-graph Count probes (they walk every graph index).
	ex := &executor{st: e.st, alg: newAlgCounters(), obsStats: profile}
	if profile {
		ex.prof = newProfiler(q.Form)
	}
	res, err := e.exec(ex, q)
	elapsed := time.Since(start)
	ex.alg.flush()
	mRowsJoined.Add(atomic.LoadInt64(&ex.rowsJoined))
	mRowsMaterialized.Add(ex.rowsMaterialized)
	mQuerySeconds.Observe(elapsed.Seconds())
	obs.C("lodify_sparql_queries_total", "form", formName(q.Form)).Inc()
	rows := 0
	if res != nil {
		rows = len(res.Solutions)
		mSolutions.Add(int64(rows))
	}
	if ex.prof != nil {
		ex.prof.finish(elapsed, rows)
		ex.prof.flushOpTotals()
	}
	sp.End(ctx)
	e.maybeSlowlog(ctx, q, ex, elapsed, rows)
	return res, ex.prof, err
}

// maybeSlowlog captures the query in the process slow-query log when
// its wall time met the configured threshold.
func (e *Engine) maybeSlowlog(ctx context.Context, q *Query, ex *executor, elapsed time.Duration, rows int) {
	l := obs.SlowQueries
	if !l.Enabled() || elapsed < l.Threshold() {
		return
	}
	sq := obs.SlowQuery{
		Time:    time.Now(),
		TraceID: obs.TraceID(ctx),
		Query:   NormalizeQuery(q.Src),
		DurNs:   int64(elapsed),
		Rows:    rows,
	}
	if ex.prof != nil {
		sq.Leases = int(ex.prof.leases)
		sq.LeaseWaitNs = ex.prof.leaseWaitNs
		if b, err := json.Marshal(ex.prof.root); err == nil {
			sq.Profile = b
		}
	}
	l.Record(sq)
}

func (e *Engine) exec(ex *executor, q *Query) (*Result, error) {
	switch q.Form {
	case FormSelect:
		sols, vars := ex.evalQuery(q)
		return &Result{Form: FormSelect, Vars: vars, Solutions: sols}, nil
	case FormAsk:
		limited := *q
		limited.Limit = 1
		sols, _ := ex.evalQuery(&limited)
		return &Result{Form: FormAsk, Bool: len(sols) > 0}, nil
	case FormConstruct:
		all := *q
		all.Star = true // keep every binding for template instantiation
		sols, _ := ex.evalQuery(&all)
		g := rdf.NewGraph()
		bn := 0
		for _, sol := range sols {
			bn++
			for _, tp := range q.Template {
				t, ok := instantiate(tp, sol, bn)
				if ok && t.Validate() == nil {
					g.Add(t)
				}
			}
		}
		return &Result{Form: FormConstruct, Triples: g.Sorted()}, nil
	case FormDescribe:
		// Targets resolve to ids before the lease is taken; one the
		// dictionary has never seen describes to nothing.
		var ids []store.TermID
		target := func(t rdf.Term) {
			if id, ok := e.st.LookupID(t); ok {
				ids = append(ids, id)
			}
		}
		for _, t := range q.DescribeTerms {
			target(t)
		}
		if len(q.DescribeVars) > 0 {
			all := *q
			all.Star = true
			sols, _ := ex.evalQuery(&all)
			for _, sol := range sols {
				for _, v := range q.DescribeVars {
					target(sol[v])
				}
			}
		}
		g := rdf.NewGraph()
		seen := map[store.TermID]bool{}
		lease := e.st.ReadLease()
		ex.prof.addLease(lease.Wait())
		for _, id := range ids {
			describeInto(lease, id, g, seen)
		}
		lease.Release()
		return &Result{Form: FormDescribe, Triples: g.Sorted()}, nil
	default:
		return nil, fmt.Errorf("sparql: unsupported query form %v", q.Form)
	}
}

// describeInto adds the concise bounded description of the term with
// the given id: all triples with that subject, recursing through
// blank-node objects. Id 0 (the zero term) is a wildcard to the store
// and describes nothing.
func describeInto(lease *store.Lease, id store.TermID, g *rdf.Graph, seen map[store.TermID]bool) {
	if id == 0 || seen[id] {
		return
	}
	seen[id] = true
	lease.MatchIDs(id, 0, 0, store.AnyGraph, func(s, p, o, _ store.TermID) bool {
		obj := lease.TermOf(o)
		g.Add(rdf.Triple{S: lease.TermOf(s), P: lease.TermOf(p), O: obj})
		if obj.IsBlank() {
			describeInto(lease, o, g, seen)
		}
		return true
	})
}

func instantiate(tp TriplePattern, sol Solution, bnSeq int) (rdf.Triple, bool) {
	conv := func(pt PatternTerm) (rdf.Term, bool) {
		if pt.IsVar() {
			t, ok := sol[pt.Var]
			return t, ok && !t.IsZero()
		}
		if pt.Term.IsBlank() {
			// Fresh blank node per solution, per template label.
			return rdf.NewBlank(fmt.Sprintf("%s_r%d", pt.Term.Value(), bnSeq)), true
		}
		return pt.Term, true
	}
	s, ok := conv(tp.S)
	if !ok {
		return rdf.Triple{}, false
	}
	p, ok := conv(tp.P)
	if !ok {
		return rdf.Triple{}, false
	}
	o, ok := conv(tp.O)
	if !ok {
		return rdf.Triple{}, false
	}
	return rdf.Triple{S: s, P: p, O: o}, true
}

// Bindings returns the values of one variable across all solutions,
// in order, skipping unbound rows. A convenience for callers that
// select a single column.
func (r *Result) Bindings(varName string) []rdf.Term {
	out := make([]rdf.Term, 0, len(r.Solutions))
	for _, sol := range r.Solutions {
		if t, ok := sol[varName]; ok && !t.IsZero() {
			out = append(out, t)
		}
	}
	return out
}

// Table renders SELECT results as a simple aligned text table for
// CLIs and EXPERIMENTS.md output.
func (r *Result) Table() string {
	if r.Form == FormAsk {
		return fmt.Sprintf("ASK -> %v\n", r.Bool)
	}
	vars := r.Vars
	if len(vars) == 0 {
		set := map[string]bool{}
		for _, s := range r.Solutions {
			for v := range s {
				set[v] = true
			}
		}
		for v := range set {
			vars = append(vars, v)
		}
		sort.Strings(vars)
	}
	widths := make([]int, len(vars))
	rows := make([][]string, 0, len(r.Solutions)+1)
	head := make([]string, len(vars))
	for i, v := range vars {
		head[i] = "?" + v
		widths[i] = len(head[i])
	}
	rows = append(rows, head)
	for _, sol := range r.Solutions {
		row := make([]string, len(vars))
		for i, v := range vars {
			if t, ok := sol[v]; ok {
				row[i] = t.String()
			}
			if len(row[i]) > widths[i] {
				widths[i] = len(row[i])
			}
		}
		rows = append(rows, row)
	}
	var b strings.Builder
	for _, row := range rows {
		for i, cell := range row {
			fmt.Fprintf(&b, "%-*s ", widths[i], cell)
		}
		b.WriteString("\n")
	}
	return b.String()
}

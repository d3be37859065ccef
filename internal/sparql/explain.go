package sparql

import (
	"context"
	"strings"

	"lodify/internal/store"
)

// Explanation is the result of EXPLAIN / EXPLAIN ANALYZE: the plan
// tree (static estimates, or measured when Analyze) plus whole-query
// totals. Result carries the actual solutions of an ANALYZE run for
// callers that want both (it is not part of the JSON document).
type Explanation struct {
	Query       string    `json:"query"`
	Analyze     bool      `json:"analyze"`
	Plan        *PlanNode `json:"plan"`
	Rows        int       `json:"rows"`
	WallNs      int64     `json:"wallNs,omitempty"`
	Leases      int64     `json:"leases,omitempty"`
	LeaseWaitNs int64     `json:"leaseWaitNs,omitempty"`
	Result      *Result   `json:"-"`
}

// Explain parses src and returns its plan: static operator tree with
// store cardinality estimates when analyze is false, the executed
// profile (real rows, wall time, lease waits) when true.
func (e *Engine) Explain(ctx context.Context, src string, analyze bool) (*Explanation, error) {
	q, err := Parse(src)
	if err != nil {
		mParseErrors.Inc()
		return nil, err
	}
	exp := &Explanation{Query: NormalizeQuery(src), Analyze: analyze}
	if !analyze {
		exp.Plan = e.staticPlan(q)
		return exp, nil
	}
	res, prof, err := e.run(ctx, q, true)
	if err != nil {
		return nil, err
	}
	exp.Plan = prof.root
	exp.Rows = len(res.Solutions)
	exp.WallNs = prof.root.WallNs
	exp.Leases = prof.leases
	exp.LeaseWaitNs = prof.leaseWaitNs
	exp.Result = res
	return exp, nil
}

// staticPlan builds the operator tree without executing, annotating
// BGPs with the planner's steps and estimates.
func (e *Engine) staticPlan(q *Query) *PlanNode {
	root := &PlanNode{Op: formName(q.Form)}
	if q.Where != nil {
		for _, child := range q.Where.Children {
			root.Children = append(root.Children, e.staticNode(child))
		}
	}
	return root
}

func (e *Engine) staticNode(n PatternNode) *PlanNode {
	pn := &PlanNode{Op: nodeKind(n), Detail: nodeDetail(n)}
	switch node := n.(type) {
	case *BGP:
		pn.EstRows, pn.Children = e.staticBGPPlan(node)
	case *GroupPattern:
		for _, c := range node.Children {
			pn.Children = append(pn.Children, e.staticNode(c))
		}
	case *OptionalPattern:
		for _, c := range node.Group.Children {
			pn.Children = append(pn.Children, e.staticNode(c))
		}
	case *UnionPattern:
		for _, br := range node.Branches {
			g := &PlanNode{Op: "group"}
			for _, c := range br.Children {
				g.Children = append(g.Children, e.staticNode(c))
			}
			pn.Children = append(pn.Children, g)
		}
	case *MinusPattern:
		for _, c := range node.Group.Children {
			pn.Children = append(pn.Children, e.staticNode(c))
		}
	case *GraphPattern:
		for _, c := range node.Group.Children {
			pn.Children = append(pn.Children, e.staticNode(c))
		}
	case *SubQuery:
		pn.Children = append(pn.Children, e.staticPlan(node.Query))
	}
	return pn
}

// staticBGPPlan plans the BGP against the live statistics and renders
// its join steps as child plan nodes (op scan/hash-join, cumulative
// estimate per step). Static planning has no GRAPH context, so it
// estimates across all graphs. A constant the dictionary has never
// seen, like an exact-zero pattern, plans to 0 rows and no steps.
func (e *Engine) staticBGPPlan(node *BGP) (int64, []*PlanNode) {
	var plain []TriplePattern
	for _, tp := range node.Triples {
		if tp.Path == nil {
			plain = append(plain, tp)
		}
	}
	if len(plain) == 0 {
		return 0, nil
	}
	ex := &executor{st: e.st}
	ex.fr = groupFrame(&GroupPattern{Children: []PatternNode{node}})
	cp, ok := ex.compileBGP(plain)
	if !ok {
		return 0, nil
	}
	plan := ex.planBGP(node, cp, store.AnyGraph, 1, 0)
	if plan.empty {
		return 0, nil
	}
	children := make([]*PlanNode, 0, len(plan.steps))
	for _, stp := range plan.steps {
		op := "scan"
		if stp.hash {
			op = "hash-join"
		}
		children = append(children, &PlanNode{
			Op: op, Detail: patternText(plain[stp.pat]), EstRows: estRows(stp.est),
		})
	}
	return plan.est, children
}

// NormalizeQuery collapses a query's whitespace to single spaces (the
// canonical one-line form the slow-query log and EXPLAIN echo), capped
// at 2048 bytes.
func NormalizeQuery(src string) string {
	s := strings.Join(strings.Fields(src), " ")
	if len(s) > 2048 {
		s = s[:2048] + "..."
	}
	return s
}

// StripExplain removes a leading EXPLAIN [ANALYZE] prefix from a query
// string, reporting which was present. The SPARQL grammar has no such
// keyword; the endpoint accepts it as sugar for the explain parameter.
func StripExplain(src string) (rest string, explain, analyze bool) {
	s := strings.TrimSpace(src)
	after, ok := cutKeyword(s, "EXPLAIN")
	if !ok {
		return src, false, false
	}
	if rest, ok := cutKeyword(strings.TrimLeft(after, " \t\r\n"), "ANALYZE"); ok {
		return rest, true, true
	}
	return after, true, false
}

// cutKeyword removes a leading case-insensitive keyword, requiring a
// word boundary after it (EXPLAINSELECT is not EXPLAIN SELECT).
func cutKeyword(s, kw string) (rest string, ok bool) {
	if len(s) < len(kw) || !strings.EqualFold(s[:len(kw)], kw) {
		return s, false
	}
	rest = s[len(kw):]
	if rest != "" {
		switch rest[0] {
		case ' ', '\t', '\r', '\n':
		default:
			return s, false
		}
	}
	return rest, true
}

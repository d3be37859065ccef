package sparql

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"lodify/internal/obs"
)

// Plan profiling: when a profiler is attached to an executor (EXPLAIN
// ANALYZE, or any query while the slow-query log is enabled), every
// evalNode dispatch is timed and counted into a plan-shaped tree.
// Profile nodes are keyed by *syntax* node identity, so operators that
// re-evaluate per input row (the OPTIONAL inner group, GRAPH ?g per
// graph) aggregate into one node with Evals > 1 instead of exploding
// the tree. A nil profiler disables everything: the non-EXPLAIN hot
// path pays a single pointer check per node.

// PlanNode is one operator of a profiled (EXPLAIN ANALYZE) or static
// (EXPLAIN) query plan.
type PlanNode struct {
	// Op is the algebra operator (select/ask/..., bgp, optional,
	// union, minus, graph, subquery, bind, values, group).
	Op string `json:"op"`
	// Detail describes the operator's syntax (triple patterns for a
	// BGP, the graph term for GRAPH, ...).
	Detail string `json:"detail,omitempty"`
	// Evals counts how many times the operator ran (OPTIONAL inner
	// groups run once per input row).
	Evals int64 `json:"evals,omitempty"`
	// RowsIn/RowsOut total the binding rows flowing in and out across
	// all evals.
	RowsIn  int64 `json:"rowsIn"`
	RowsOut int64 `json:"rowsOut"`
	// WallNs is inclusive wall time (children included), like the
	// actual-time of EXPLAIN ANALYZE elsewhere.
	WallNs int64 `json:"wallNs"`
	// AllocBytes estimates the row memory the operator's output
	// retained (rows x slots x 8 bytes) — analytic, not measured, so
	// profiling never touches runtime.ReadMemStats.
	AllocBytes int64 `json:"allocBytes,omitempty"`
	// Leases/LeaseWaitNs count store read leases acquired while this
	// operator was on top of the plan stack and the time they spent
	// blocked on writers — summed across every shard lock the lease
	// acquired, so the field stays truthful on sharded stores.
	Leases      int64 `json:"leases,omitempty"`
	LeaseWaitNs int64 `json:"leaseWaitNs,omitempty"`
	// EstRows is the planner's cardinality estimate, from the live
	// per-(predicate, graph) statistics: cost-planned BGPs and their
	// join steps carry it in both static EXPLAIN and ANALYZE trees.
	EstRows int64 `json:"estRows,omitempty"`
	// MissFactor is the estimate-vs-actual mis-estimation ratio
	// (max/min of EstRows and RowsOut, ≥ 1), filled when an ANALYZE
	// run finishes on nodes that have an estimate. 10x and worse is a
	// planner regression worth a slow-query-log look.
	MissFactor float64     `json:"missFactor,omitempty"`
	Children   []*PlanNode `json:"children,omitempty"`

	children map[any]*PlanNode // syntax-node (or step) identity -> child
}

// profiler accumulates a PlanNode tree during one query execution.
// The executor is single-goroutine except for parallel BGP workers,
// which only report lease acquisitions: addLease takes mu, and the
// plan stack is stable while workers run (evalBGP blocks on them).
type profiler struct {
	mu          sync.Mutex
	root        *PlanNode
	stack       []*PlanNode
	leases      int64
	leaseWaitNs int64
}

func newProfiler(form QueryForm) *profiler {
	root := &PlanNode{Op: formName(form)}
	return &profiler{root: root, stack: []*PlanNode{root}}
}

// enter finds or creates the profile node for n under the current
// stack top, records the input cardinality and pushes it.
func (p *profiler) enter(n PatternNode, rowsIn int) *PlanNode {
	parent := p.stack[len(p.stack)-1]
	if parent.children == nil {
		parent.children = map[any]*PlanNode{}
	}
	pn, ok := parent.children[n]
	if !ok {
		pn = &PlanNode{Op: nodeKind(n), Detail: nodeDetail(n)}
		parent.children[n] = pn
		parent.Children = append(parent.Children, pn)
	}
	pn.Evals++
	pn.RowsIn += int64(rowsIn)
	p.stack = append(p.stack, pn)
	return pn
}

// exit pops pn, adding its wall time, output cardinality and the
// analytic allocation estimate for the rows it emitted.
func (p *profiler) exit(pn *PlanNode, wall time.Duration, rowsOut, rowWidth int) {
	pn.WallNs += int64(wall)
	pn.RowsOut += int64(rowsOut)
	pn.AllocBytes += int64(rowsOut) * int64(rowWidth+3) * 8 // slots + slice header
	p.stack = p.stack[:len(p.stack)-1]
}

// addLease attributes one store read-lease acquisition to the current
// operator. The wait argument is the lease's total blocked time —
// store.Lease sums its per-shard acquisition waits before reporting,
// so one cross-shard lease still counts as one lease here. Safe from
// parallel BGP workers (and nil receivers).
func (p *profiler) addLease(wait time.Duration) {
	if p == nil {
		return
	}
	p.mu.Lock()
	top := p.stack[len(p.stack)-1]
	top.Leases++
	top.LeaseWaitNs += int64(wait)
	p.leases++
	p.leaseWaitNs += int64(wait)
	p.mu.Unlock()
}

// setTopEst records the planner estimate on the operator currently on
// top of the stack (the BGP node, during execPlan), keeping
// the first estimate on re-evaluation.
func (p *profiler) setTopEst(est int64) {
	top := p.stack[len(p.stack)-1]
	if top.EstRows == 0 {
		top.EstRows = est
	}
}

// stepChild finds or creates a child of the current stack top keyed by
// an arbitrary identity — planner join steps, which are not syntax
// nodes — without pushing it onto the stack (leases taken during a
// step keep attributing to the owning BGP).
func (p *profiler) stepChild(key any, op, detail string, est int64) *PlanNode {
	parent := p.stack[len(p.stack)-1]
	if parent.children == nil {
		parent.children = map[any]*PlanNode{}
	}
	pn, ok := parent.children[key]
	if !ok {
		pn = &PlanNode{Op: op, Detail: detail, EstRows: est}
		parent.children[key] = pn
		parent.Children = append(parent.Children, pn)
	}
	return pn
}

// stepExit accumulates one execution of a stepChild node.
func (p *profiler) stepExit(pn *PlanNode, wall time.Duration, rowsIn, rowsOut, rowWidth int) {
	pn.Evals++
	pn.RowsIn += int64(rowsIn)
	pn.WallNs += int64(wall)
	pn.RowsOut += int64(rowsOut)
	pn.AllocBytes += int64(rowsOut) * int64(rowWidth+3) * 8
}

// finish closes the root with the query's total wall time and
// solution count, then fills mis-estimation factors on every node
// that carries a planner estimate.
func (p *profiler) finish(elapsed time.Duration, rows int) {
	p.root.Evals++
	p.root.WallNs = int64(elapsed)
	p.root.RowsOut = int64(rows)
	fillMissFactors(p.root)
}

// fillMissFactors computes EstRows-vs-RowsOut ratios recursively. Both
// sides floor at 1 so zero-row actuals yield a finite factor.
func fillMissFactors(n *PlanNode) {
	if n.EstRows > 0 && n.Evals > 0 {
		est, act := float64(n.EstRows), float64(n.RowsOut)
		if est < 1 {
			est = 1
		}
		if act < 1 {
			act = 1
		}
		f := est / act
		if f < 1 {
			f = 1 / f
		}
		// Two decimals keep the JSON stable across runs of equal shape.
		n.MissFactor = math.Round(f*100) / 100
	}
	for _, c := range n.Children {
		fillMissFactors(c)
	}
}

// flushOpTotals publishes per-operator self time (inclusive wall minus
// children) and output rows:
//
//	lodify_sparql_op_nanos_total{op}
//	lodify_sparql_op_rows_total{op}
func (p *profiler) flushOpTotals() {
	var walk func(n *PlanNode)
	walk = func(n *PlanNode) {
		var child int64
		for _, c := range n.Children {
			child += c.WallNs
			walk(c)
		}
		self := n.WallNs - child
		if self < 0 {
			self = 0
		}
		obs.C("lodify_sparql_op_nanos_total", "op", n.Op).Add(self)
		obs.C("lodify_sparql_op_rows_total", "op", n.Op).Add(n.RowsOut)
	}
	walk(p.root)
}

// nodeDetail renders the operator's syntax for plan display.
func nodeDetail(n PatternNode) string {
	switch node := n.(type) {
	case *BGP:
		pats := make([]string, len(node.Triples))
		for i, tp := range node.Triples {
			pats[i] = patternText(tp)
		}
		return strings.Join(pats, " . ")
	case *GraphPattern:
		return "graph " + patternTermText(node.Graph)
	case *BindPattern:
		return "bind ?" + node.Var
	case *ValuesPattern:
		return fmt.Sprintf("%d rows", len(node.Rows))
	case *UnionPattern:
		return fmt.Sprintf("%d branches", len(node.Branches))
	case *SubQuery:
		return "select"
	default:
		return ""
	}
}

func patternText(tp TriplePattern) string {
	p := patternTermText(tp.P)
	if tp.Path != nil {
		p = "<path>"
	}
	return patternTermText(tp.S) + " " + p + " " + patternTermText(tp.O)
}

func patternTermText(pt PatternTerm) string {
	if pt.IsVar() {
		return "?" + pt.Var
	}
	return pt.Term.String()
}

// Text renders the plan tree as an indented text table (the
// text/plain EXPLAIN output).
func (n *PlanNode) Text() string {
	var b strings.Builder
	n.writeText(&b, 0)
	return b.String()
}

func (n *PlanNode) writeText(b *strings.Builder, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(n.Op)
	if n.Detail != "" {
		fmt.Fprintf(b, " [%s]", n.Detail)
	}
	if n.EstRows > 0 {
		fmt.Fprintf(b, " est=%d", n.EstRows)
	}
	if n.MissFactor > 0 {
		fmt.Fprintf(b, " miss=%.1fx", n.MissFactor)
	}
	if n.Evals > 0 {
		fmt.Fprintf(b, " evals=%d in=%d out=%d wall=%s",
			n.Evals, n.RowsIn, n.RowsOut, time.Duration(n.WallNs))
	}
	if n.AllocBytes > 0 {
		fmt.Fprintf(b, " alloc≈%dB", n.AllocBytes)
	}
	if n.Leases > 0 {
		fmt.Fprintf(b, " leases=%d wait=%s", n.Leases, time.Duration(n.LeaseWaitNs))
	}
	b.WriteString("\n")
	for _, c := range n.Children {
		c.writeText(b, depth+1)
	}
}

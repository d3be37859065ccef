package sparql

import (
	"sync"
	"sync/atomic"
	"time"

	"lodify/internal/store"
)

// Execution of BGP plans (planner.go): the one join path. The step
// order is fixed, so no per-row count probes are paid. Scan steps bind
// in place on a backtracking scratch row (solutions clone only at
// emission); hash steps evaluate their pattern standalone once and
// merge through joinRowsHash. Without a profiler consecutive scan
// steps fuse into one nested-loop run with no materialization between
// them; under a profiler every step runs alone, materialized, so
// EXPLAIN ANALYZE can report actual per-step cardinalities against the
// estimates.

// execPlan runs a plan over the input rows.
func (ex *executor) execPlan(plan *bgpPlan, plain []TriplePattern, cp []compiledPattern, gid store.TermID, input []row) []row {
	if plan.empty {
		return nil
	}
	if ex.prof != nil {
		ex.prof.setTopEst(plan.est)
	}
	cur := input
	for i, j := 0, 0; i < len(plan.steps); i = j {
		step := plan.steps[i]
		j = i + 1
		if ex.prof == nil && !step.hash {
			for j < len(plan.steps) && !plan.steps[j].hash {
				j++
			}
		}
		var (
			child *PlanNode
			start time.Time
		)
		if ex.prof != nil {
			op := "scan"
			if step.hash {
				op = "hash-join"
			}
			child = ex.prof.stepChild(stepKey{plan: plan, idx: i}, op, patternText(plain[step.pat]), estRows(step.est))
			start = time.Now()
		}
		rowsIn := len(cur)
		// The one empty-input early-out: nothing to extend, so neither a
		// scan run nor a hash step's standalone build scan is paid (a
		// profiler still records the zero-actuals node).
		if rowsIn > 0 {
			if step.hash {
				// The build side is the pattern standalone: the one-step
				// join of a single all-unbound row, under its own lease.
				build := ex.joinFixed(plan.steps[i:j], cp, gid, []row{make(row, len(ex.fr.names))})
				cur = joinRowsHash(cur, build)
				atomic.AddInt64(&ex.rowsJoined, int64(len(cur)))
			} else {
				cur = ex.joinFixed(plan.steps[i:j], cp, gid, cur)
			}
		}
		if ex.prof != nil {
			ex.prof.stepExit(child, time.Since(start), rowsIn, len(cur), len(ex.fr.names))
		}
	}
	return cur
}

// stepKey identifies one plan step across re-evaluations (OPTIONAL
// inner BGPs run once per input row and must aggregate per step).
type stepKey struct {
	plan *bgpPlan
	idx  int
}

// joinFixed extends the input rows through a run of scan steps, fanning
// out across workers when the input is large.
func (ex *executor) joinFixed(steps []planStep, cp []compiledPattern, gid store.TermID, input []row) []row {
	if len(input) >= bgpParallelThreshold && bgpMaxWorkers > 1 {
		return ex.joinFixedParallel(steps, cp, gid, input)
	}
	lease := ex.st.ReadLease()
	ex.prof.addLease(lease.Wait())
	out := ex.joinFixedSeq(lease, steps, cp, gid, input)
	lease.Release()
	atomic.AddInt64(&ex.rowsJoined, int64(len(out)))
	return out
}

// joinFixedSeq is the single-lease nested-loop run over the steps. The
// scratch binding row is reused across input rows: backtracking fully
// restores it after each one.
func (ex *executor) joinFixedSeq(lease *store.Lease, steps []planStep, cp []compiledPattern, gid store.TermID, input []row) []row {
	scratch := make(row, len(ex.fr.names))
	var out []row
	for _, r := range input {
		copy(scratch, r)
		out = ex.fixedStep(lease, steps, cp, gid, scratch, out)
	}
	return out
}

// joinFixedParallel fans the join out over contiguous chunks of the
// input rows. Each worker holds its own lease and produces only store
// ids (pattern matching never interns), so workers share no mutable
// state; chunk results concatenate in order, keeping the output
// identical to the sequential path.
func (ex *executor) joinFixedParallel(steps []planStep, cp []compiledPattern, gid store.TermID, input []row) []row {
	mBGPParallel.Inc()
	workers := bgpMaxWorkers
	if workers > len(input) {
		workers = len(input)
	}
	chunk := (len(input) + workers - 1) / workers
	results := make([][]row, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= len(input) {
			break
		}
		hi := min(lo+chunk, len(input))
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			lease := ex.st.ReadLease()
			defer lease.Release()
			ex.prof.addLease(lease.Wait())
			out := ex.joinFixedSeq(lease, steps, cp, gid, input[lo:hi])
			atomic.AddInt64(&ex.rowsJoined, int64(len(out)))
			results[w] = out
		}(w, lo, hi)
	}
	wg.Wait()
	total := 0
	for _, rs := range results {
		total += len(rs)
	}
	out := make([]row, 0, total)
	for _, rs := range results {
		out = append(out, rs...)
	}
	return out
}

// fixedStep extends cur by the first step's pattern and recurses down
// the rest. Bindings are in place with backtracking; complete rows
// clone at emission.
func (ex *executor) fixedStep(lease *store.Lease, steps []planStep, cp []compiledPattern, gid store.TermID, cur row, out []row) []row {
	if len(steps) == 0 {
		return append(out, cur.clone())
	}
	pat := cp[steps[0].pat]
	s, p, o := resolveIDs(pat, cur)
	lease.MatchIDs(s, p, o, gid, func(ms, mp, mo, _ store.TermID) bool {
		// Bind the unbound variable positions, tracking slots to undo.
		// Already-bound slots were substituted into the scan pattern, so
		// they can only conflict on repeated-variable patterns.
		var touched [3]int
		n := 0
		bind := func(ct cpTerm, val store.TermID) bool {
			if ct.slot < 0 {
				return true
			}
			if cur[ct.slot] != 0 {
				return cur[ct.slot] == val
			}
			cur[ct.slot] = val
			touched[n] = ct.slot
			n++
			return true
		}
		if bind(pat.s, ms) && bind(pat.p, mp) && bind(pat.o, mo) {
			out = ex.fixedStep(lease, steps[1:], cp, gid, cur, out)
		}
		for i := 0; i < n; i++ {
			cur[touched[i]] = 0
		}
		return true
	})
	return out
}

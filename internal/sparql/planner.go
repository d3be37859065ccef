package sparql

import (
	"math"

	"lodify/internal/store"
)

// Cost-based BGP join planning (DESIGN.md §15). The planner reads the
// store's live per-(predicate, graph) statistics (exact counts +
// distinct-subject/object sketches, store/pstats.go) once per BGP,
// runs a bottom-up dynamic program over pattern subsets, and fixes
// both the join order and the per-edge algorithm:
//
//   - scan: nested-loop index extension — for each intermediate row,
//     substitute its bindings into the pattern and scan the matches.
//     Cost ≈ rows·seek + output.
//   - hash: evaluate the pattern standalone once and hash-join it with
//     the intermediate rows. Cost ≈ pattern-cardinality·build +
//     rows·probe + output. Wins when the intermediate set is large
//     relative to the pattern (and for cartesian edges, which a scan
//     would re-enumerate per row).
//
// Join cardinalities use the textbook distinct-divisor model: joining
// a pattern whose variable at some position is already bound divides
// its enumeration by that position's distinct count. Estimates only
// need the right order of magnitude — mis-estimations surface in
// EXPLAIN ANALYZE as miss factors.
//
// The DP is exact (left-deep over all 2^n subsets) up to plannerMaxDP
// patterns; larger BGPs get an all-scan plan in greedy order
// (greedySteps). Either way the result is a fixed step order for the
// one executor in planexec.go. Slots beyond the 64-bit planning domain
// never count as bound, which only skews estimates.

// plannerMaxDP bounds the exact DP: 2^10 subset states (package var so
// tests can lower it).
var plannerMaxDP = 10

// Cost-model constants, in arbitrary "row visit" units. Only their
// ratios matter: a scan pays one index seek per input row, a hash join
// pays one build visit per pattern row and a cheaper probe per input
// row, and both pay one visit per output row.
const (
	costSeek  = 1.0
	costBuild = 1.0
	costProbe = 0.25
)

// planStep is one join edge of a finished plan.
type planStep struct {
	pat  int  // index into the compiled pattern slice
	hash bool // hash-join the standalone pattern vs index-scan extend
	est  float64
}

// bgpPlan is the planner's output for one (BGP, graph) pair. A plan is
// computed once per executor and cached — OPTIONAL inner groups
// re-evaluate their BGP per input row and must not re-plan each time.
type bgpPlan struct {
	steps []planStep
	// est is the final-cardinality estimate surfaced as estRows.
	est int64
	// empty marks a pattern with an exact zero count: the whole BGP
	// can't match and evaluation short-circuits without taking a lease.
	empty bool
}

// planKey caches plans per syntax node, graph restriction and
// input-binding shape: the same BGP node re-planned under different
// pre-bound variables (a VALUES prefix, an OPTIONAL inner group) gets
// different join orders.
type planKey struct {
	node *BGP
	gid  store.TermID
	mask uint64
}

// patStat is one pattern's planning statistics: base is the expected
// standalone match count (constants already applied), dist the
// distinct-value estimates per position for join-selectivity division.
type patStat struct {
	base float64
	dist [3]float64 // s, p, o
}

// patternStats derives one compiled pattern's statistics from the
// store. Constant-predicate patterns read the maintained
// per-(predicate, graph) series; variable-predicate patterns pay one
// bounded CountIDs probe and use a √n distinct heuristic.
func patternStats(st *store.Store, p compiledPattern, gid store.TermID) patStat {
	isConst := func(ct cpTerm) bool { return ct.slot < 0 && ct.id != 0 }
	if isConst(p.p) {
		ps := st.PredStatIDs(p.p.id, gid)
		dS := math.Max(float64(ps.DistinctS), 1)
		dO := math.Max(float64(ps.DistinctO), 1)
		base := float64(ps.Count)
		if isConst(p.s) {
			base /= dS
		}
		if isConst(p.o) {
			base /= dO
		}
		return patStat{base: base, dist: [3]float64{dS, 1, dO}}
	}
	s, pr, o := resolveConsts(p)
	base := float64(st.CountIDs(s, pr, o, gid))
	d := math.Max(math.Sqrt(base), 1)
	return patStat{base: base, dist: [3]float64{d, d, d}}
}

// resolveConsts yields the id triple for a standalone scan of the
// pattern: constants as-is, variables as wildcards.
func resolveConsts(p compiledPattern) (s, pr, o store.TermID) {
	get := func(ct cpTerm) store.TermID {
		if ct.slot >= 0 {
			return 0
		}
		return ct.id
	}
	return get(p.s), get(p.p), get(p.o)
}

// patSlotMask returns the pattern's variable slots as a bitmask.
func patSlotMask(p compiledPattern) uint64 {
	var m uint64
	for _, ct := range [3]cpTerm{p.s, p.p, p.o} {
		if ct.slot >= 0 && ct.slot < 64 {
			m |= 1 << uint(ct.slot)
		}
	}
	return m
}

// probeCard estimates how many matches one intermediate row's scan of
// pattern p enumerates, given the set of already-bound slots: the
// standalone cardinality divided by the distinct count of every bound
// position.
func probeCard(p compiledPattern, ps patStat, bound uint64) float64 {
	pc := ps.base
	for pos, ct := range [3]cpTerm{p.s, p.p, p.o} {
		if ct.slot >= 0 && ct.slot < 64 && bound&(1<<uint(ct.slot)) != 0 {
			pc /= ps.dist[pos]
		}
	}
	return math.Max(pc, 1e-9)
}

// planBGP returns the plan for the compiled patterns (at least one).
// Plans cache per (node, gid, input mask) on the executor; inputRows
// is the first call's input cardinality and scales the scan-vs-hash
// decision.
func (ex *executor) planBGP(node *BGP, cp []compiledPattern, gid store.TermID, inputRows int, inputMask uint64) *bgpPlan {
	key := planKey{node, gid, inputMask}
	if plan, ok := ex.plans[key]; ok {
		return plan
	}
	plan := ex.buildPlan(cp, gid, inputRows, inputMask)
	if ex.plans == nil {
		ex.plans = make(map[planKey]*bgpPlan)
	}
	ex.plans[key] = plan
	return plan
}

// buildPlan orders the patterns — by the subset DP up to plannerMaxDP
// patterns, greedily above — and fills the cumulative estimates.
// inputMask carries the slots the input rows already bind (a VALUES
// prefix, an earlier group): those count as bound from the first step,
// which is what steers the first join away from standalone hash builds
// when the input is already selective.
func (ex *executor) buildPlan(cp []compiledPattern, gid store.TermID, inputRows int, inputMask uint64) *bgpPlan {
	stats := make([]patStat, len(cp))
	masks := make([]uint64, len(cp))
	for i := range cp {
		stats[i] = patternStats(ex.st, cp[i], gid)
		if stats[i].base == 0 {
			// Exact zero: the maintained counts (and the CountIDs probe)
			// are precise, so this pattern — hence the BGP — matches
			// nothing at planning time.
			return &bgpPlan{empty: true}
		}
		masks[i] = patSlotMask(cp[i])
	}
	card := math.Max(float64(inputRows), 1)
	var steps []planStep
	if len(cp) > plannerMaxDP {
		steps = greedySteps(cp, stats, masks, inputMask)
	} else {
		steps = dpSteps(cp, stats, masks, card, inputMask)
	}
	bound := inputMask
	for i := range steps {
		card *= probeCard(cp[steps[i].pat], stats[steps[i].pat], bound)
		steps[i].est = card
		bound |= masks[steps[i].pat]
	}
	return &bgpPlan{steps: steps, est: estRows(card)}
}

// greedySteps is the ordering for BGPs too large for the DP: an
// all-scan plan that repeatedly takes the unplaced pattern with the
// smallest probe cardinality under the slots bound so far.
func greedySteps(cp []compiledPattern, stats []patStat, masks []uint64, bound uint64) []planStep {
	steps := make([]planStep, 0, len(cp))
	placed := make([]bool, len(cp))
	for range cp {
		best, bestCard := -1, 0.0
		for j := range cp {
			if placed[j] {
				continue
			}
			if pc := probeCard(cp[j], stats[j], bound); best < 0 || pc < bestCard {
				best, bestCard = j, pc
			}
		}
		placed[best] = true
		bound |= masks[best]
		steps = append(steps, planStep{pat: best})
	}
	return steps
}

// dpSteps runs the subset DP: exponential in len(cp), bounded by
// plannerMaxDP (≤ 1024 states x ≤ 10 transitions). inputCard is the
// input cardinality the first step extends.
func dpSteps(cp []compiledPattern, stats []patStat, masks []uint64, inputCard float64, inputMask uint64) []planStep {
	n := len(cp)
	type dpEntry struct {
		cost, card float64
		last       int8
		hash       bool
		ok         bool
	}
	dp := make([]dpEntry, 1<<uint(n))
	dp[0] = dpEntry{card: inputCard, ok: true}
	for mask := 0; mask < len(dp); mask++ {
		if !dp[mask].ok {
			continue
		}
		e := dp[mask]
		bound := inputMask
		for j := 0; j < n; j++ {
			if mask&(1<<uint(j)) != 0 {
				bound |= masks[j]
			}
		}
		for j := 0; j < n; j++ {
			if mask&(1<<uint(j)) != 0 {
				continue
			}
			pc := probeCard(cp[j], stats[j], bound)
			out := e.card * pc
			scan := e.cost + e.card*costSeek + out
			hash := e.cost + stats[j].base*costBuild + e.card*costProbe + out
			cost, useHash := scan, false
			if hash < scan {
				cost, useHash = hash, true
			}
			nm := mask | 1<<uint(j)
			if !dp[nm].ok || cost < dp[nm].cost {
				dp[nm] = dpEntry{cost: cost, card: out, last: int8(j), hash: useHash, ok: true}
			}
		}
	}

	// Reconstruct the step order back-to-front.
	steps := make([]planStep, n)
	for mask := len(dp) - 1; mask != 0; {
		e := dp[mask]
		n--
		steps[n] = planStep{pat: int(e.last), hash: e.hash}
		mask &^= 1 << uint(e.last)
	}
	return steps
}

// inputBoundMask samples the input rows and returns the slots bound in
// every sampled row. Used only for cost estimates (a stale bit cannot
// affect execution correctness), so sampling a prefix is fine; slots
// beyond the 64-bit planning domain are conservatively unbound.
func inputBoundMask(input []row) uint64 {
	if len(input) == 0 {
		return 0
	}
	sample := input
	if len(sample) > 64 {
		sample = sample[:64]
	}
	m := ^uint64(0)
	for _, r := range sample {
		var rm uint64
		for i, id := range r {
			if i >= 64 {
				break
			}
			if id != 0 {
				rm |= 1 << uint(i)
			}
		}
		m &= rm
	}
	return m
}

// estRows rounds a cardinality estimate for display, clamped to a
// non-negative int64.
func estRows(card float64) int64 {
	if card < 0 || math.IsNaN(card) {
		return 0
	}
	if card > math.MaxInt64/2 {
		return math.MaxInt64 / 2
	}
	return int64(card + 0.5)
}

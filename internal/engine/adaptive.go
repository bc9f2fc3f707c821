package engine

import (
	"fmt"

	"monetlite/internal/core"
)

// Adaptive re-optimization (mid-query replanning): the planner's
// physical choices are made from cardinality *estimates* — uniformity
// assumptions for selections, the hit-rate-one heuristic for joins —
// and a bad estimate can leave a GroupAggregate running the wrong
// algorithm by an order of magnitude. But by the time the aggregate's
// feed reaches it, the estimates below have been replaced by facts:
// every pipeline breaker (the Join build/probe boundary, selection
// materialization, OrderBy) materializes its result, so the exact
// cardinality entering the aggregate is known before a single group is
// built. maybeReplan exploits that breaker boundary: when the observed
// feed cardinality diverges from the plan-time estimate by more than
// Config.ReplanFactor (either direction), the grouping choice is
// re-costed with the observed count through the same costGrouping the
// planner used.
//
// The replan is constrained to moves that keep results byte-identical
// to the non-adaptive plan — the determinism contract (results
// byte-identical across worker counts, profiled or
// not) extends to replan on/off. Per groupAggOp.group's decomposition
// analysis:
//
//   - Single morsel (n ≤ core.MorselRows): all three strategies
//     produce bitwise-identical results (hash/sort collapse to one
//     monolithic grouping; radix's stable clustering preserves global
//     input order per group), so the re-choice is unconstrained.
//   - Multi-morsel, planned radix: any bit/pass retune is free —
//     stable clustering aggregates each group in global input order
//     whatever B and P are — but switching to hash/sort would
//     re-associate the float sums (per-morsel partials merge instead
//     of global-order accumulation). Only the tuning is revisited.
//   - Multi-morsel, planned hash or sort: hash and sort share the
//     per-morsel-partials-plus-merge decomposition, so flipping
//     between them is free; moving to radix is not. The flip is the
//     only move.
//
// What deliberately does NOT replan, and why:
//
//   - The join plan (strategy/bits/passes): the JoinIndex emission
//     order is strategy-dependent, and every downstream binding
//     inherits it — a join replan would change result bytes. The
//     cardinality a join sees is also its *operands'*, already
//     materialized under the plan the estimates picked.
//   - The cluster pass count alone: core.OptimalPasses depends only on
//     the bit count and the TLB geometry, not cardinality, so an
//     observed-cardinality retune is vacuous by construction.
//   - OrderBy: one comparison-sort algorithm, nothing to choose.
//
// So in this engine the breaker boundaries below a GroupAggregate act
// as the observation points, and the aggregate — the one operator
// whose three-way algorithm choice is both cardinality-sensitive and
// byte-stable under the moves above — is what gets replanned.
// Decisions depend only on (estimate, observation, model, force), all
// identical across worker counts: the replan itself
// is deterministic.

// maybeReplan re-costs the grouping choice for the observed feed
// cardinality obs, returning the retuned choice, the EXPLAIN ANALYZE
// annotation ("replanned at <op>: est=N obs=M ..."), and whether a
// replan actually changed anything. Disabled (ctx.replanFactor == 0)
// under Config.NoReplan and on simulated runs.
func (o *groupAggOp) maybeReplan(ctx *execCtx, obs int) (groupChoice, string, bool) {
	planned := groupChoice{strat: o.strat, bits: o.radixBits, passes: o.radixPass}
	f := ctx.replanFactor
	if f == 0 || o.estRows <= 0 || obs <= 0 {
		return planned, "", false
	}
	est := float64(o.estRows)
	if float64(obs) <= est*f && est <= float64(obs)*f {
		return planned, "", false // estimate held up
	}

	// Groups can't exceed rows: the observation also tightens the
	// group-count estimate the table-sizing terms use.
	g := o.estGroups
	if float64(obs) < g {
		g = float64(obs)
	}

	re := costGrouping(obs, g, ctx.forceGroup, ctx.model)
	if core.MorselsOf(obs) > 1 {
		// Multi-morsel: restrict to the byte-identical class of the
		// planned strategy (see package comment).
		switch {
		case planned.strat == aggRadix && re.strat != aggRadix:
			re = costGrouping(obs, g, "radix", ctx.model) // retune bits/passes only
		case planned.strat != aggRadix && re.strat == aggRadix:
			hashN := ctx.model.Nanos("GroupAggregate[hash]", groupCost(obs, g, false, ctx.model))
			sortN := ctx.model.Nanos("GroupAggregate[sort]", groupCost(obs, g, true, ctx.model))
			if sortN < hashN {
				re = groupChoice{strat: aggSort}
			} else {
				re = groupChoice{strat: aggHash}
			}
		}
	}
	if re.strat == planned.strat && re.bits == planned.bits && re.passes == planned.passes {
		return planned, "", false // divergence noted, same choice survives
	}
	note := fmt.Sprintf("replanned at %s: est=%d obs=%d (%s)",
		o.label(), o.estRows, obs, describeReplan(planned, re))
	return re, note, true
}

// describeReplan renders the strategy move for the annotation.
func describeReplan(from, to groupChoice) string {
	s := func(c groupChoice) string {
		if c.strat == aggRadix {
			return fmt.Sprintf("radix bits=%d passes=%d", c.bits, c.passes)
		}
		return c.strat.String()
	}
	return s(from) + " → " + s(to)
}

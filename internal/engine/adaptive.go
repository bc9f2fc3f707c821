package engine

import (
	"fmt"

	"monetlite/internal/core"
)

// Adaptive re-optimization (mid-query replanning): the planner's
// physical choices are made from cardinality *estimates* — uniformity
// assumptions for selections, the hit-rate-one heuristic for joins —
// and a bad estimate can leave a GroupAggregate running the wrong
// algorithm by an order of magnitude. Radix and sort grouping consume
// a materialized (key, value) feed, so by the time they start, the
// exact cardinality entering the aggregate is known. maybeReplan
// exploits that boundary: when the observed feed cardinality diverges
// from the plan-time estimate by more than Config.ReplanFactor (either
// direction), the grouping choice is re-costed with the observed count
// through the same costGrouping the planner used.
//
// Hash grouping never replans. Its sink aggregates inside the
// pipeline, vector by vector, so by the time the cardinality is known
// the grouping is already done — there is no boundary left to act at.
//
// The replan is constrained to moves that keep results byte-identical
// to the non-adaptive plan — the determinism contract (results
// byte-identical across worker counts, profiled or not) extends to
// replan on/off. Per groupAggOp.group's decomposition analysis:
//
//   - Single morsel (n ≤ core.MorselRows): radix, sort and a hash fold
//     of the feed all accumulate each group in input order from 0, so
//     they produce bitwise-identical results and the re-choice is
//     unconstrained.
//   - Multi-morsel, planned radix: any bit/pass retune is free —
//     stable clustering aggregates each group in global input order
//     whatever B and P are — but switching to hash or sort would
//     re-associate the float sums (per-morsel partials merge instead
//     of global-order accumulation). Only the tuning is revisited.
//   - Multi-morsel, planned sort: no move. Radix would re-associate
//     the sums; hash grouping belongs in the sink, which this plan
//     did not choose, and folding the sort feed instead would only
//     repeat sort's per-morsel association at a different speed.
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
// So the feed boundary below a radix or sort GroupAggregate is the
// observation point, and that aggregate — whose algorithm choice is
// both cardinality-sensitive and byte-stable under the moves above —
// is what gets replanned. Decisions depend only on (estimate,
// observation, model, force), all identical across worker counts: the
// replan itself is deterministic.

// maybeReplan re-costs the grouping choice for the observed feed
// cardinality obs, returning the retuned choice, the EXPLAIN ANALYZE
// annotation ("replanned at <op>: est=N obs=M ..."), and whether a
// replan actually changed anything. Disabled (ctx.replanFactor == 0)
// under Config.NoReplan and on simulated runs; a hash-planned
// aggregate never gets here.
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

	multi := core.MorselsOf(obs) > 1
	if multi && planned.strat != aggRadix {
		return planned, "", false // a multi-morsel sort keeps its plan
	}
	re := costGrouping(obs, g, ctx.forceGroup, ctx.model)
	if multi && re.strat != aggRadix {
		re = costGrouping(obs, g, "radix", ctx.model) // retune bits/passes only
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

package engine

import (
	"fmt"

	"monetlite/internal/core"
)

// Morsel-driven parallel execution: every pipeline and bulk breaker
// splits its input into fixed-size morsels (core.MorselRows) and fans
// them out over the core.Options worker pool carried by the execCtx.
// Two invariants keep results byte-identical to serial execution for
// any Parallelism setting:
//
//   - Merge order is a function of morsel boundaries, never of worker
//     scheduling: per-morsel buffers concatenate (or, for aggregates,
//     partials merge) in morsel index order.
//   - The native path always uses the morsel decomposition when the
//     input spans more than one morsel — Parallelism only sizes the
//     pool that drains the morsels — so serial (Parallelism: 1) and
//     parallel runs compute, e.g., float sums in exactly the same
//     association order.
//
// Instrumented runs (sim != nil) never parallelize: the memory
// simulator models a single CPU and is documented single-goroutine, so
// execCtx.par reports 1 and every operator and pipeline takes its
// serial loop.

// par resolves the degree of parallelism for an operator stage over n
// rows: 1 under a simulator, otherwise the configured worker bound
// clamped by the morsel count (core.Options.WorkersFor).
func (ctx *execCtx) par(n int) int {
	if ctx.sim != nil {
		return 1
	}
	return ctx.opt.WorkersFor(n)
}

// planPar is the plan-time counterpart of execCtx.par, computed from
// the estimated cardinality for the EXPLAIN annotation (native runs;
// instrumented runs are always serial).
func planPar(cfg Config, rows float64) int {
	n := int(rows)
	if float64(n) < rows {
		n++
	}
	return cfg.Opt.WorkersFor(n)
}

// forMorsels runs body(m, lo, hi) for every morsel of an n-row input
// on the worker pool. body must write only morsel-m-local state. A
// profiled run (ctx.spans != nil) records one span per morsel; the
// decomposition and any merge order the caller builds from it are
// identical either way.
func (ctx *execCtx) forMorsels(n int, body func(m, lo, hi int)) {
	if ctx.spans == nil {
		core.ForMorsels(ctx.par(n), n, body)
		return
	}
	core.ForEachSpan(ctx.par(n), core.MorselsOf(n), ctx.spans, func(_, m int) {
		lo, hi := core.MorselBounds(m, n)
		body(m, lo, hi)
	})
}

// forMorselsErr is forMorsels for fallible bodies: every morsel runs,
// and the first error in morsel order is returned (deterministic
// regardless of scheduling).
func (ctx *execCtx) forMorselsErr(n int, body func(m, lo, hi int) error) error {
	nm := core.MorselsOf(n)
	if ctx.par(n) <= 1 && ctx.spans == nil {
		// Inline fast path: stop at the first error like a plain loop.
		for m := 0; m < nm; m++ {
			lo, hi := core.MorselBounds(m, n)
			if err := body(m, lo, hi); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, nm)
	core.ForEachSpan(ctx.par(n), nm, ctx.spans, func(_, m int) {
		lo, hi := core.MorselBounds(m, n)
		errs[m] = body(m, lo, hi)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// pipeArena is one worker's reusable scratch for pipeline execution:
// the row vector passed between fused stages, per-binding storage
// positions of its rows, and for a GroupAggregate sink the key codes,
// per-operand gather buffers, measure temporaries, a radix sink's
// unclustered morsel run and the worker's hash-aggregation table. A
// worker reuses its arena across every morsel it drains — per-morsel
// allocation is the overhead pipelines exist to avoid.
type pipeArena struct {
	rows []int32
	pos  [][]int32 // per binding: owned position buffer
	view [][]int32 // per binding: the sink's positions (rows or pos)
	keys []int64
	ops  [][]float64
	tmp  [][]float64 // evalVec temporaries
	agg  aggTable

	runKeys []int64 // radix sink: the morsel's (key, value) pairs
	runVals []float64
	runBase uint64 // their simulated address (instrumented runs)
}

// ensure grows the arena to the pipeline's vector size, binding count
// and, under a GroupAggregate sink g, its key, operand and measure
// buffers (no-ops once warm).
func (a *pipeArena) ensure(vecRows, nbinds int, g *groupAggOp) {
	if cap(a.rows) < vecRows {
		a.rows = make([]int32, 0, vecRows)
	}
	for len(a.pos) < nbinds {
		a.pos = append(a.pos, nil)
		a.view = append(a.view, nil)
	}
	if g == nil {
		return
	}
	if g.strat == aggHash && cap(a.keys) < vecRows {
		a.keys = make([]int64, 0, vecRows) // a radix sink gathers keys into its run
	}
	a.ops = ensureVecs(a.ops, len(g.operands), vecRows)
	a.tmp = ensureVecs(a.tmp, g.temps, vecRows)
}

// ensureVecs grows vs to at least n float buffers of capacity vecRows.
func ensureVecs(vs [][]float64, n, vecRows int) [][]float64 {
	for len(vs) < n {
		vs = append(vs, nil)
	}
	for i := 0; i < n; i++ {
		if cap(vs[i]) < vecRows {
			vs[i] = make([]float64, vecRows)
		}
	}
	return vs
}

// positions returns the storage positions of the vector's rows in
// binding bi: the rows themselves for a void binding, else resolved
// through the binding's OID list into the arena's buffer.
func (a *pipeArena) positions(binds []binding, bi int, rows []int32) ([]int32, error) {
	b := binds[bi]
	if b.oids == nil {
		return rows, nil
	}
	if cap(a.pos[bi]) < len(rows) {
		a.pos[bi] = make([]int32, 0, cap(a.rows))
	}
	dst := a.pos[bi][:0]
	for _, r := range rows {
		p, ok := b.table.Head.Position(b.oids[r])
		if !ok {
			return nil, fmt.Errorf("engine: OID %d outside table %s", b.oids[r], b.table.Schema.Name)
		}
		dst = append(dst, int32(p))
	}
	a.pos[bi] = dst
	return dst, nil
}

// arena returns worker w's scratch arena, creating it on first use.
// Worker ids are exclusive within any one fan-out, and operators run
// one after another, so slot w is never touched concurrently.
func (ctx *execCtx) arena(w int) *pipeArena {
	if w >= len(ctx.arenas) {
		// Defensive: a fan-out wider than the pre-sized pool (cannot
		// happen via par()) gets a throwaway arena rather than a panic.
		return &pipeArena{}
	}
	if ctx.arenas[w] == nil {
		ctx.arenas[w] = &pipeArena{}
	}
	return ctx.arenas[w]
}

package engine

import (
	"fmt"

	"monetlite/internal/agg"
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
// per-operand gather buffers, measure temporaries and the worker's
// hash-aggregation table. A worker reuses its arena across every
// morsel it drains — per-morsel allocation is the overhead pipelines
// exist to avoid.
type pipeArena struct {
	rows []int32
	pos  [][]int32 // per binding: owned position buffer
	view [][]int32 // per binding: the sink's positions (rows or pos)
	keys []int64
	ops  [][]float64
	tmp  [][]float64 // evalVec temporaries
	agg  aggTable
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
		a.keys = make([]int64, 0, vecRows) // a feed gathers keys into its chunk
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

// radixGroupNative is the native radix-partitioned grouping path:
// cluster the (key, value) feed on the low `bits` key bits over the
// worker pool, then aggregate every partition independently — each
// worker drains contiguous partition ranges with one reused
// cache-resident PartitionAggregator — and concatenate the per-range
// results in partition order. There is no merge step: partitions own
// disjoint key sets by construction. The output is byte-identical at
// any worker count because the cluster kernel is worker-independent,
// tuples keep input order within a partition (stable passes), and
// task ranges are contiguous, so concatenating task results in task
// order is concatenating partitions in partition order.
func radixGroupNative(ctx *execCtx, keys []int64, vals []float64, bits, passes int) (*agg.GroupResult, error) {
	var clPh *OpStats
	if ctx.prof != nil {
		clPh = ctx.prof.beginPhase("cluster[radix]", fmt.Sprintf("bits=%d passes=%d", bits, passes))
	}
	ck, cv, offs, err := core.RadixClusterKV(keys, vals, bits, passes, ctx.opt)
	if clPh != nil {
		// Every pass reads and rewrites the 16-byte (key, value) pairs —
		// the §3.4.2 cluster-pass traffic, at actual cardinality.
		moved := int64(len(keys)) * 16 * int64(passes)
		parts := int64(0)
		if err == nil {
			parts = int64(len(offs) - 1)
		}
		ctx.prof.endPhase(clPh, parts, moved, moved)
	}
	if err != nil {
		return nil, err
	}
	nparts := len(offs) - 1
	workers := ctx.opt.Workers()
	if workers > nparts {
		workers = nparts
	}
	if workers < 1 {
		workers = 1
	}
	tasks := aggPartitionTasks(offs, workers)
	var agPh *OpStats
	if ctx.prof != nil {
		agPh = ctx.prof.beginPhase("aggregate[partitions]", fmt.Sprintf("%d partitions, %d tasks", nparts, len(tasks)))
	}
	results := make([]agg.GroupResult, len(tasks))
	aggs := make([]agg.PartitionAggregator, workers)
	core.ForEachSpan(workers, len(tasks), ctx.spans, func(w, t int) {
		lo, hi := tasks[t][0], tasks[t][1]
		res := &results[t]
		// At worst every tuple of the range is its own group.
		res.Reserve(offs[hi] - offs[lo])
		pa := &aggs[w]
		for p := lo; p < hi; p++ {
			pa.AggregateInto(res, ck[offs[p]:offs[p+1]], cv[offs[p]:offs[p+1]])
		}
	})
	total := 0
	for t := range results {
		total += results[t].Groups()
	}
	if agPh != nil {
		ctx.prof.endPhase(agPh, int64(total), int64(len(ck))*16, int64(total)*40)
	}
	if len(tasks) == 1 {
		return &results[0], nil
	}
	out := &agg.GroupResult{
		Key:   make([]int64, 0, total),
		Count: make([]int64, 0, total),
		Sum:   make([]float64, 0, total),
		Min:   make([]float64, 0, total),
		Max:   make([]float64, 0, total),
	}
	for t := range results {
		out.Key = append(out.Key, results[t].Key...)
		out.Count = append(out.Count, results[t].Count...)
		out.Sum = append(out.Sum, results[t].Sum...)
		out.Min = append(out.Min, results[t].Min...)
		out.Max = append(out.Max, results[t].Max...)
	}
	return out, nil
}

// aggPartitionTasks splits the partition index range [0, len(offsets)-1)
// into contiguous tasks of roughly equal tuple count (partitions can
// skew, so equal partition counts would balance badly), a few tasks
// per worker so stragglers even out. Task boundaries influence only
// scheduling, never output order.
func aggPartitionTasks(offsets []int, workers int) [][2]int {
	nparts := len(offsets) - 1
	total := offsets[nparts]
	grain := total/(workers*4) + 1
	tasks := make([][2]int, 0, workers*4)
	lo := 0
	for p := 0; p < nparts; p++ {
		if offsets[p+1]-offsets[lo] >= grain {
			tasks = append(tasks, [2]int{lo, p + 1})
			lo = p + 1
		}
	}
	if lo < nparts {
		tasks = append(tasks, [2]int{lo, nparts})
	}
	if len(tasks) == 0 { // zero partitions cannot happen (bits ≥ 1), but stay safe
		tasks = append(tasks, [2]int{0, nparts})
	}
	return tasks
}

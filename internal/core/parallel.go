// The execution engine: the worker pool every native operator fans
// out over. The radix-cluster passes split big regions across it with
// the classic per-worker histogram → prefix-sum → scatter scheme and
// fan small regions out one per worker (radixPasses); after
// clustering, each cluster pair joins independently (§3.3.1), so the
// join phase runs contiguous cluster ranges on it (joinClusters). Both
// produce output byte-identical to one worker: workers own contiguous
// cluster (or input) ranges and results are concatenated in cluster
// order.
//
// Parallelism applies only to the native execution path. The
// instrumented path (sim != nil) models a single 1999 CPU and
// memsim.Sim is documented single-goroutine, so an operator given a
// simulator runs its simulated kernels as one serial task.
package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"monetlite/internal/bat"
)

// Options tunes the execution engine. The zero value asks for full
// parallelism on the native path and is the recommended default.
type Options struct {
	// Parallelism bounds the worker goroutines an operator may use:
	// 0 or negative means runtime.GOMAXPROCS(0), 1 forces serial
	// execution, and larger values are used as given (clamped to the
	// available work). Instrumented runs (sim != nil) are always
	// serial.
	Parallelism int
}

// Serial returns Options that force the serial execution path.
func Serial() Options { return Options{Parallelism: 1} }

// Workers returns the effective worker count the options resolve to
// (the bound every morsel-driven operator clamps to its morsel count).
func (o Options) Workers() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// MorselRows is the number of rows per morsel: the unit in which the
// morsel-driven operators (select, refilter, gather, group-aggregate)
// split their inputs before fanning them out over the worker pool. At
// 256K rows a morsel of a narrow column is a few hundred KB — past the
// L2 cache, so per-morsel work amortizes scheduling, yet small enough
// that a handful of morsels load-balance across workers. Morsel
// boundaries (not worker count) determine every merge order, so
// results are byte-identical for any Parallelism setting. A variable
// so tests can shrink it to exercise multi-morsel merging on small
// inputs; treat it as a constant otherwise.
var MorselRows = 256 << 10

// MorselsOf returns the number of fixed-size morsels covering n rows
// (at least 1, so a zero-row input still runs its operator body once).
func MorselsOf(n int) int {
	if n <= MorselRows {
		return 1
	}
	return (n + MorselRows - 1) / MorselRows
}

// MorselBounds returns the row range [lo, hi) of morsel m of an n-row
// input.
func MorselBounds(m, n int) (lo, hi int) {
	lo = m * MorselRows
	hi = lo + MorselRows
	if hi > n {
		hi = n
	}
	return lo, hi
}

// WorkersFor resolves the degree of parallelism a morsel-driven
// operator over n rows may use: the configured worker bound clamped by
// the morsel count (never below 1). The single source of the clamp —
// execution and EXPLAIN annotations must agree.
func (o Options) WorkersFor(n int) int {
	return clampWorkers(o.Workers(), MorselsOf(n))
}

// ForEach runs body(w, i) for every i in [0, n) with up to `workers`
// goroutines pulling indexes off a shared counter — the worker pool
// behind every morsel-driven operator. body must touch only
// index-i-local and worker-w-local state; with workers <= 1 it runs
// inline, in order.
func ForEach(workers, n int, body func(w, i int)) {
	if workers <= 1 {
		for i := 0; i < n; i++ {
			body(0, i)
		}
		return
	}
	forEachIndex(workers, n, body)
}

// ForMorsels runs body(m, lo, hi) for every morsel of an n-row input
// on up to `workers` goroutines — the one source of the morsel
// decompose/fan-out recipe, so every operator slices its input
// identically and the byte-identical merge orders cannot drift apart.
// body must write only morsel-m-local state (its own output ranges or
// buffers); with workers <= 1 the morsels run inline, in order.
func ForMorsels(workers, n int, body func(m, lo, hi int)) {
	ForEach(workers, MorselsOf(n), func(_, m int) {
		lo, hi := MorselBounds(m, n)
		body(m, lo, hi)
	})
}

// joinTask is one unit of join-phase work: a contiguous range of
// clusters [loK, hiK) whose results land in out, so concatenating
// task outputs in task order reproduces the one-task emission order
// exactly.
type joinTask struct {
	loK, hiK int
	out      []bat.Pair
}

// joinGrain is the minimum number of outer tuples a join task covers;
// below it, task-pull overhead dominates the join work itself.
const joinGrain = 1 << 12

// minParallelRegion is the smallest clustering region worth splitting
// across workers; smaller regions go to the region fan-out instead.
const minParallelRegion = 1 << 14

// clampWorkers bounds a requested worker count by the available work
// units, so absurd Parallelism values cannot oversize pools or
// scratch (Options documents large values as clamped).
func clampWorkers(workers, units int) int {
	return max(1, min(workers, units))
}

// clusterTasks splits the cluster range of a join into tasks of
// roughly equal outer cardinality (clusters can be heavily skewed, so
// equal cluster *counts* would balance badly).
func clusterTasks(lc *Clustered, workers int) []joinTask {
	total := lc.Pairs.Len()
	grain := max(total/(workers*8), joinGrain)
	h := lc.Clusters()
	tasks := make([]joinTask, 0, workers*8)
	lo, acc := 0, 0
	for k := 0; k < h; k++ {
		acc += lc.ClusterLen(k)
		if acc >= grain {
			tasks = append(tasks, joinTask{loK: lo, hiK: k + 1})
			lo, acc = k+1, 0
		}
	}
	if lo < h {
		tasks = append(tasks, joinTask{loK: lo, hiK: h})
	}
	return tasks
}

// forEachIndex runs body(w, i) for every i in [0, n) with up to
// `workers` goroutines pulling indexes off a shared counter; body must
// touch only index-i-local and worker-w-local state.
func forEachIndex(workers, n int, body func(w, i int)) {
	p := &pool{n: n, body: body}
	workers = min(workers, n)
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go p.run(w)
	}
	p.wg.Wait()
}

// pool is one forEachIndex fan-out: the shared index counter and the
// barrier its workers meet at.
type pool struct {
	next atomic.Int64
	n    int
	wg   sync.WaitGroup
	body func(w, i int)
}

func (p *pool) run(w int) {
	defer p.wg.Done()
	for {
		i := int(p.next.Add(1) - 1)
		if i >= p.n {
			return
		}
		p.body(w, i)
	}
}

// concatTasks stitches the per-task outputs back into one join index,
// in cluster order.
func concatTasks(tasks []joinTask) *JoinIndex {
	total := 0
	for i := range tasks {
		total += len(tasks[i].out)
	}
	out := make([]bat.Pair, 0, total)
	for i := range tasks {
		out = append(out, tasks[i].out...)
	}
	return bat.FromPairs(out)
}

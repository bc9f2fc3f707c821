package core

import (
	"fmt"

	"monetlite/internal/bat"
	"monetlite/internal/hashtab"
	"monetlite/internal/memsim"
	"monetlite/internal/sortx"
)

// JoinIndex is the result of every equi-join in the paper's setup
// (§3.4.1): a BAT of [OID,OID] combinations of matching tuples — a
// join index in the sense of [Val87]. Head is the left OID, Tail the
// right OID (stored in the uint32 Tail field).
type JoinIndex = bat.Pairs

// joinVec is the number of outer keys, and of result pairs, per
// hashtab.ProbeVec call of hashJoinCluster: 4 KB of stack vectors.
const joinVec = 256

// hashJoinCluster, a native per-cluster kernel, appends the join of
// the outer cluster l with the inner cluster r to out: it builds t on
// r and probes it with l a vector of keys at a time, emitting what one
// Probe per outer tuple would, in outer order and chain order. The
// cluster drivers pass views by value: through a func value, views
// passed by pointer would move to the heap once per task.
//
//monet:kernel
func hashJoinCluster(t *hashtab.Table, l, r bat.Pairs, out []bat.Pair) []bat.Pair {
	t.Build(nil, &r)
	var keys [joinVec]uint32
	var idx, lpos, rpos [joinVec]int32
	for i := range idx {
		idx[i] = int32(i)
	}
	for lo := 0; lo < len(l.BUNs); lo += joinVec {
		vec := l.BUNs[lo:min(lo+joinVec, len(l.BUNs))]
		for i := range vec {
			keys[i] = vec[i].Tail
		}
		var c hashtab.Cursor
		for c.Key < len(vec) {
			n := t.ProbeVec(nil, &r, keys[:len(vec)], idx[:len(vec)], &c, lpos[:], rpos[:])
			for j := range n {
				out = append(out, bat.Pair{Head: vec[lpos[j]].Head, Tail: uint32(r.BUNs[rpos[j]].Head)})
			}
		}
	}
	return out
}

// nestedLoopCluster is the per-cluster kernel comparing all of l × r.
//
//monet:kernel
func nestedLoopCluster(_ *hashtab.Table, l, r bat.Pairs, out []bat.Pair) []bat.Pair {
	for _, lb := range l.BUNs {
		for _, rb := range r.BUNs {
			if rb.Tail == lb.Tail {
				out = append(out, bat.Pair{Head: lb.Head, Tail: uint32(rb.Head)})
			}
		}
	}
	return out
}

// hashJoinClusterSim is hashJoinCluster under a simulator, tuple by
// tuple: the build, w'h per build and wh per outer tuple, then each
// outer tuple's read and Probe, whose matches the sink writes. Every
// `every` outer tuples (a power of two; 0: never) it checks the budget.
func hashJoinClusterSim(sim *memsim.Sim, t *hashtab.Table, l, r *bat.Pairs, sink *joinSink, every int) error {
	cost := sim.Machine().Cost
	t.Build(sim, r)
	sim.AddCPU(1, cost.WhClus)
	sim.AddCPU(l.Len(), cost.Wh)
	var lh bat.Oid
	emit := func(pos int32) { sink.emit(lh, r.BUNs[pos].Head) }
	for i := range l.BUNs {
		sim.Read(l.Addr(i), bat.PairSize)
		lh = l.BUNs[i].Head
		t.Probe(sim, r, l.BUNs[i].Tail, emit)
		if every > 0 && i&(every-1) == every-1 && sim.Exhausted() {
			return memsim.ErrBudget
		}
	}
	return nil
}

// nestedLoopClusterSim is nestedLoopCluster under a simulator: per
// outer tuple its read, wr per predicate check and every inner read;
// the sink writes the matches. It checks the budget as above.
func nestedLoopClusterSim(sim *memsim.Sim, l, r *bat.Pairs, sink *joinSink, every int) error {
	wr := sim.Machine().Cost.Wr
	for i, lb := range l.BUNs {
		sim.Read(l.Addr(i), bat.PairSize)
		sim.AddCPU(r.Len(), wr)
		for j, rb := range r.BUNs {
			sim.Read(r.Addr(j), bat.PairSize)
			if rb.Tail == lb.Tail {
				sink.emit(lb.Head, rb.Head)
			}
		}
		if i&(every-1) == every-1 && sim.Exhausted() {
			return memsim.ErrBudget
		}
	}
	return nil
}

// joinSink collects a simulated join's result and mirrors its writes.
// Simulated address space is reserved for twice the outer cardinality;
// the experiments have hit rate exactly 1, so the reservation is never
// exceeded (writes beyond it are counted as CPU work only).
type joinSink struct {
	sim    *memsim.Sim
	out    []bat.Pair
	base   uint64
	capSim int
	wOut   float64 // CPU cost per result tuple (w'r / share of wh)
}

func newJoinSink(sim *memsim.Sim, expect int, wOut float64) *joinSink {
	s := &joinSink{sim: sim, out: make([]bat.Pair, 0, expect), capSim: 2 * expect, wOut: wOut}
	if s.capSim == 0 {
		s.capSim = 16
	}
	s.base = sim.Alloc(s.capSim * bat.PairSize)
	return s
}

func (s *joinSink) emit(lh, rh bat.Oid) {
	if i := len(s.out); i < s.capSim {
		s.sim.Write(s.base+uint64(i)*bat.PairSize, bat.PairSize)
	}
	s.sim.AddCPU(1, s.wOut)
	s.out = append(s.out, bat.Pair{Head: lh, Tail: uint32(rh)})
}

// joinClusters runs a native join phase over the cluster pairs of
// lc ⋈ rc (the merge step on radix values of §3.3.1) with the kernel
// join, handing it its worker's table (clusterTable) when h is set.
// Several workers run ranges of balanced outer cardinality and
// concatenate their outputs in cluster order: one worker's, byte for
// byte.
func joinClusters(lc, rc *Clustered, opt Options, h hashtab.Hash,
	join func(t *hashtab.Table, l, r bat.Pairs, out []bat.Pair) []bat.Pair) (*JoinIndex, error) {
	if lc.Bits != rc.Bits {
		return nil, fmt.Errorf("core: cluster bit mismatch %d vs %d", lc.Bits, rc.Bits)
	}
	run := func(tab **hashtab.Table, loK, hiK int, out []bat.Pair) []bat.Pair {
		var t *hashtab.Table
		if h != nil {
			t = clusterTable(tab, rc, loK, hiK, h)
		}
		var l, r bat.Pairs
		for k := loK; k < hiK; k++ {
			if clusterPair(lc, rc, k, &l, &r) {
				out = join(t, l, r, out)
			}
		}
		return out
	}
	workers := clampWorkers(opt.Workers(), lc.Pairs.Len()/joinGrain+1)
	if workers <= 1 {
		var tab *hashtab.Table
		return bat.FromPairs(run(&tab, 0, lc.Clusters(), make([]bat.Pair, 0, lc.Pairs.Len()))), nil
	}
	tasks := clusterTasks(lc, workers)
	tabs := make([]*hashtab.Table, workers)
	forEachIndex(workers, len(tasks), func(w, i int) {
		t := &tasks[i]
		t.out = run(&tabs[w], t.loK, t.hiK, make([]bat.Pair, 0, lc.Offsets[t.hiK]-lc.Offsets[t.loK]))
	})
	return concatTasks(tasks), nil
}

// joinClustersSim runs a join phase under a simulator: one serial pass
// joining each cluster pair into one sink, failed as the named join's
// by join's error or a budget exhausted at the end of a cluster.
func joinClustersSim(sim *memsim.Sim, lc, rc *Clustered, wOut float64, name string,
	join func(l, r bat.Pairs, sink *joinSink) error) (*JoinIndex, error) {
	if lc.Bits != rc.Bits {
		return nil, fmt.Errorf("core: cluster bit mismatch %d vs %d", lc.Bits, rc.Bits)
	}
	lc.Pairs.Bind(sim)
	rc.Pairs.Bind(sim)
	sink := newJoinSink(sim, lc.Pairs.Len(), wOut)
	var l, r bat.Pairs
	for k := range lc.Clusters() {
		if !clusterPair(lc, rc, k, &l, &r) {
			continue
		}
		err := join(l, r, sink)
		if err == nil && sim.Exhausted() {
			err = memsim.ErrBudget
		}
		if err != nil {
			return nil, fmt.Errorf("core: %s cluster %d: %w", name, k, err)
		}
	}
	return bat.FromPairs(sink.out), nil
}

// clusterPair re-points lv and rv at cluster k of lc and rc and
// reports whether both are non-empty, i.e. whether the pair joins.
func clusterPair(lc, rc *Clustered, k int, lv, rv *bat.Pairs) bool {
	if lc.ClusterLen(k) == 0 || rc.ClusterLen(k) == 0 {
		return false
	}
	lc.Pairs.SliceInto(lv, lc.Offsets[k], lc.Offsets[k+1])
	rc.Pairs.SliceInto(rv, rc.Offsets[k], rc.Offsets[k+1])
	return true
}

// clusterTable returns *tab, replaced first if it cannot hold the
// largest inner cluster of [loK, hiK): a worker's table stays warm
// across clusters, and sizing it per range keeps skew from multiplying
// the footprint by the worker count. It buckets on the hash bits above
// the radix bits, on which all keys of a cluster agree.
func clusterTable(tab **hashtab.Table, rc *Clustered, loK, hiK int, h hashtab.Hash) *hashtab.Table {
	maxInner := 0
	for k := loK; k < hiK; k++ {
		maxInner = max(maxInner, rc.ClusterLen(k))
	}
	if *tab == nil || (*tab).Cap() < maxInner {
		*tab = hashtab.NewShifted(maxInner, rc.Bits, h)
	}
	return *tab
}

// PartitionedHashJoinClusteredOpts runs the join phase of partitioned
// hash-join (Figure 8) on two pre-clustered inputs: for every cluster
// pair it builds a bucket-chained hash table on the right (inner)
// cluster and probes it with the left (outer) cluster. This is the
// isolated join of Figure 11. Natively, cluster ranges run on the
// worker pool (joinClusters).
func PartitionedHashJoinClusteredOpts(sim *memsim.Sim, lc, rc *Clustered, h hashtab.Hash, opt Options) (*JoinIndex, error) {
	if h == nil {
		h = hashtab.Identity
	}
	if sim == nil {
		return joinClusters(lc, rc, opt, h, hashJoinCluster)
	}
	var tab *hashtab.Table
	t := clusterTable(&tab, rc, 0, rc.Clusters(), h)
	return joinClustersSim(sim, lc, rc, 0, "partitioned hash-join", func(l, r bat.Pairs, sink *joinSink) error {
		return hashJoinClusterSim(sim, t, &l, &r, sink, 0)
	})
}

// RadixJoinClusteredOpts runs the join phase of radix-join (Figure 8)
// on two pre-clustered inputs: a nested-loop join of every cluster
// pair. With the very fine clusterings radix-cluster affords, the
// inner loop runs over only a handful of tuples (§3.3.1: ≈8 tuples is
// optimal). This is the isolated join of Figure 10. Natively, cluster
// ranges run on the worker pool (joinClusters).
func RadixJoinClusteredOpts(sim *memsim.Sim, lc, rc *Clustered, opt Options) (*JoinIndex, error) {
	if sim == nil {
		return joinClusters(lc, rc, opt, nil, nestedLoopCluster)
	}
	return joinClustersSim(sim, lc, rc, sim.Machine().Cost.WrOut, "radix-join", func(l, r bat.Pairs, sink *joinSink) error {
		return nestedLoopClusterSim(sim, &l, &r, sink, 1024)
	})
}

// PartitionedHashJoinOpts is the complete partitioned hash-join of
// Figure 8: radix-cluster both operands on bits/passes, then hash-join
// the matching cluster pairs, on the configured engine.
func PartitionedHashJoinOpts(sim *memsim.Sim, l, r *bat.Pairs, bits, passes int, h hashtab.Hash, opt Options) (*JoinIndex, error) {
	lc, err := RadixClusterOpts(sim, l, bits, passes, h, opt)
	if err != nil {
		return nil, err
	}
	rc, err := RadixClusterOpts(sim, r, bits, passes, h, opt)
	if err != nil {
		return nil, err
	}
	return PartitionedHashJoinClusteredOpts(sim, lc, rc, h, opt)
}

// RadixJoinOpts is the complete radix-join of Figure 8: radix-cluster
// both operands on bits/passes, then nested-loop join the matching
// cluster pairs, on the configured engine.
func RadixJoinOpts(sim *memsim.Sim, l, r *bat.Pairs, bits, passes int, h hashtab.Hash, opt Options) (*JoinIndex, error) {
	lc, err := RadixClusterOpts(sim, l, bits, passes, h, opt)
	if err != nil {
		return nil, err
	}
	rc, err := RadixClusterOpts(sim, r, bits, passes, h, opt)
	if err != nil {
		return nil, err
	}
	return RadixJoinClusteredOpts(sim, lc, rc, opt)
}

// SimpleHashJoin is the non-partitioned bucket-chained hash join
// ("simple hash" in Figure 13): partitioned hash-join's cluster kernel
// run once, on B = 0, building one table on the whole inner relation
// and probing it with the whole outer one. When the inner relation
// plus its table exceed the caches, the random access pattern of both
// build and probe trashes L1, L2 and the TLB.
func SimpleHashJoin(sim *memsim.Sim, l, r *bat.Pairs, h hashtab.Hash) (*JoinIndex, error) {
	tab := hashtab.New(r.Len(), h)
	if sim == nil {
		return bat.FromPairs(hashJoinCluster(tab, *l, *r, make([]bat.Pair, 0, l.Len()))), nil
	}
	l.Bind(sim)
	r.Bind(sim)
	tab.Bind(sim) // the table's regions precede the sink's
	sink := newJoinSink(sim, l.Len(), 0)
	if err := hashJoinClusterSim(sim, tab, l, r, sink, 4096); err != nil {
		return nil, fmt.Errorf("core: simple hash-join: %w", err)
	}
	return bat.FromPairs(sink.out), nil
}

// SortMergeJoin sorts copies of both operands on the join key with
// radix sort [Knu68] and merges them. The paper dismisses it for main
// memory — sorting both relations causes random access over an even
// larger region than hash-join (§3.2) — and Figure 13 confirms it;
// it is implemented as that baseline.
func SortMergeJoin(sim *memsim.Sim, l, r *bat.Pairs) (*JoinIndex, error) {
	// Sort working copies: the operands themselves stay unsorted, as
	// Monet BATs are immutable inputs to the join.
	ls, rs := l.Clone(), r.Clone()
	if sim == nil {
		sortx.SortPairs(nil, ls, nil)
		sortx.SortPairs(nil, rs, nil)
		out := make([]bat.Pair, 0, l.Len())
		sortx.MergeJoinSorted(nil, ls, rs, func(lh, rh bat.Oid) {
			out = append(out, bat.Pair{Head: lh, Tail: uint32(rh)})
		})
		return bat.FromPairs(out), nil
	}
	cost := sim.Machine().Cost
	for _, p := range []*bat.Pairs{l, r, ls, rs} {
		p.Bind(sim)
	}
	for _, c := range [][2]*bat.Pairs{{l, ls}, {r, rs}} {
		for i := range c[0].BUNs {
			sim.Read(c[0].Addr(i), bat.PairSize)
			sim.Write(c[1].Addr(i), bat.PairSize)
		}
	}
	sortx.SortPairs(sim, ls, nil)
	sortx.SortPairs(sim, rs, nil)
	// Four radix-sort passes of scatter work per relation, plus the
	// merge walk.
	sim.AddCPU(4*(ls.Len()+rs.Len()), cost.Wc)
	sim.AddCPU(ls.Len()+rs.Len(), cost.Wr)
	if sim.Exhausted() {
		return nil, fmt.Errorf("core: sort-merge join: %w", memsim.ErrBudget)
	}
	sink := newJoinSink(sim, l.Len(), cost.WrOut)
	sortx.MergeJoinSorted(sim, ls, rs, sink.emit)
	return bat.FromPairs(sink.out), nil
}

// NestedLoopJoin is the quadratic reference join used by tests and as
// the degenerate baseline: radix-join's cluster kernel run once, on
// B = 0. It is exact for any input.
func NestedLoopJoin(sim *memsim.Sim, l, r *bat.Pairs) (*JoinIndex, error) {
	if sim == nil {
		return bat.FromPairs(nestedLoopCluster(nil, *l, *r, make([]bat.Pair, 0, l.Len()))), nil
	}
	l.Bind(sim)
	r.Bind(sim)
	sink := newJoinSink(sim, l.Len(), sim.Machine().Cost.WrOut)
	if err := nestedLoopClusterSim(sim, l, r, sink, 256); err != nil {
		return nil, fmt.Errorf("core: nested-loop join: %w", err)
	}
	return bat.FromPairs(sink.out), nil
}

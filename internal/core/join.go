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

// joinSink accumulates the join index and mirrors result writes into
// the simulator. Simulated address space is reserved for twice the
// outer cardinality; the experiments have hit rate exactly 1, so the
// reservation is never exceeded (writes beyond it are counted as CPU
// work only).
type joinSink struct {
	sim    *memsim.Sim
	out    []bat.Pair
	base   uint64
	capSim int
	wOut   float64 // CPU cost per result tuple (w'r / share of wh)
}

func newJoinSink(sim *memsim.Sim, expect int, wOut float64) *joinSink {
	s := &joinSink{sim: sim, out: make([]bat.Pair, 0, expect), wOut: wOut}
	if sim != nil {
		s.capSim = 2 * expect
		if s.capSim == 0 {
			s.capSim = 16
		}
		s.base = sim.Alloc(s.capSim * bat.PairSize)
	}
	return s
}

func (s *joinSink) emit(lh, rh bat.Oid) {
	if s.sim != nil {
		if i := len(s.out); i < s.capSim {
			s.sim.Write(s.base+uint64(i)*bat.PairSize, bat.PairSize)
		}
		s.sim.AddCPU(1, s.wOut)
	}
	s.out = append(s.out, bat.Pair{Head: lh, Tail: uint32(rh)})
}

func (s *joinSink) result() *JoinIndex {
	res := bat.FromPairs(s.out)
	return res
}

// joinClusters runs a join phase over the cluster pairs of lc ⋈ rc
// (the merge step on radix values of §3.3.1). body joins the cluster
// range [loK, hiK) into sink; tab is its worker's hash-table slot, kept
// warm across the ranges the worker runs. A serial or instrumented run
// is one task over all clusters writing straight into the result, with
// wOut of simulated CPU per result tuple. A native parallel run cuts
// the clusters into ranges of balanced outer cardinality, runs them on
// the worker pool, and concatenates their outputs in cluster order —
// the one task's output, byte for byte.
func joinClusters(sim *memsim.Sim, lc, rc *Clustered, opt Options, wOut float64,
	body func(tab **hashtab.Table, loK, hiK int, sink *joinSink) error) (*JoinIndex, error) {
	if lc.Bits != rc.Bits {
		return nil, fmt.Errorf("core: cluster bit mismatch %d vs %d", lc.Bits, rc.Bits)
	}
	lc.Pairs.Bind(sim)
	rc.Pairs.Bind(sim)
	workers := clampWorkers(opt.workers(), lc.Pairs.Len()/joinGrain+1)
	if sim != nil || workers <= 1 {
		var tab *hashtab.Table
		sink := newJoinSink(sim, lc.Pairs.Len(), wOut)
		if err := body(&tab, 0, lc.Clusters(), sink); err != nil {
			return nil, err
		}
		return sink.result(), nil
	}
	tasks := clusterTasks(lc, workers)
	tabs := make([]*hashtab.Table, workers)
	forEachIndex(workers, len(tasks), func(w, i int) {
		t := &tasks[i]
		t.sink.out = make([]bat.Pair, 0, t.lTuples)
		_ = body(&tabs[w], t.loK, t.hiK, &t.sink) // only a simulated run fails (on its budget)
	})
	return concatTasks(tasks), nil
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
	var wh, whClus float64
	if sim != nil {
		wh = sim.Machine().Cost.Wh
		whClus = sim.Machine().Cost.WhClus
	}
	return joinClusters(sim, lc, rc, opt, 0, func(tab **hashtab.Table, loK, hiK int, sink *joinSink) error {
		// One table per worker, reused warm across clusters (like a
		// real allocator handing back the same arena), sized to the
		// largest inner cluster of the range: under skew the global
		// maximum times the worker count would multiply the footprint.
		// w'h per cluster charges the create/destroy overhead the model
		// attributes to each cluster. The table buckets on the hash
		// bits ABOVE the radix bits: inside a cluster all keys agree on
		// the lower Bits bits.
		maxInner := 0
		for k := loK; k < hiK; k++ {
			maxInner = max(maxInner, rc.ClusterLen(k))
		}
		if *tab == nil || (*tab).Cap() < maxInner {
			*tab = hashtab.NewShifted(maxInner, lc.Bits, h)
		}
		t := *tab
		var lcl, rcl bat.Pairs
		for k := loK; k < hiK; k++ {
			if !clusterPair(lc, rc, k, &lcl, &rcl) {
				continue
			}
			t.Build(sim, &rcl)
			if sim != nil {
				sim.AddCPU(1, whClus)
				sim.AddCPU(lcl.Len(), wh)
			}
			for i := range lcl.BUNs {
				if sim != nil {
					sim.Read(lcl.Addr(i), bat.PairSize)
				}
				lh, key := lcl.BUNs[i].Head, lcl.BUNs[i].Tail
				t.Probe(sim, &rcl, key, func(pos int32) {
					sink.emit(lh, rcl.BUNs[pos].Head)
				})
			}
			if sim != nil && sim.Exhausted() {
				return fmt.Errorf("core: partitioned hash-join cluster %d: %w", k, memsim.ErrBudget)
			}
		}
		return nil
	})
}

// RadixJoinClusteredOpts runs the join phase of radix-join (Figure 8)
// on two pre-clustered inputs: a nested-loop join of every cluster
// pair. With the very fine clusterings radix-cluster affords, the
// inner loop runs over only a handful of tuples (§3.3.1: ≈8 tuples is
// optimal). This is the isolated join of Figure 10. Natively, cluster
// ranges run on the worker pool (joinClusters).
func RadixJoinClusteredOpts(sim *memsim.Sim, lc, rc *Clustered, opt Options) (*JoinIndex, error) {
	var wr, wrOut float64
	if sim != nil {
		wr = sim.Machine().Cost.Wr
		wrOut = sim.Machine().Cost.WrOut
	}
	return joinClusters(sim, lc, rc, opt, wrOut, func(_ **hashtab.Table, loK, hiK int, sink *joinSink) error {
		var lcl, rcl bat.Pairs
		for k := loK; k < hiK; k++ {
			if !clusterPair(lc, rc, k, &lcl, &rcl) {
				continue
			}
			for i := range lcl.BUNs {
				if sim != nil {
					sim.Read(lcl.Addr(i), bat.PairSize)
					sim.AddCPU(rcl.Len(), wr) // predicate checks of the inner scan
				}
				lh, key := lcl.BUNs[i].Head, lcl.BUNs[i].Tail
				for j := range rcl.BUNs {
					if sim != nil {
						sim.Read(rcl.Addr(j), bat.PairSize)
					}
					if rcl.BUNs[j].Tail == key {
						sink.emit(lh, rcl.BUNs[j].Head)
					}
				}
				if sim != nil && i&1023 == 1023 && sim.Exhausted() {
					return fmt.Errorf("core: radix-join cluster %d: %w", k, memsim.ErrBudget)
				}
			}
			if sim != nil && sim.Exhausted() {
				return fmt.Errorf("core: radix-join cluster %d: %w", k, memsim.ErrBudget)
			}
		}
		return nil
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
// ("simple hash" in Figure 13): build one table on the whole inner
// relation, probe with the whole outer relation. When the inner
// relation plus its table exceed the caches, the random access pattern
// of both build and probe trashes L1, L2 and the TLB.
func SimpleHashJoin(sim *memsim.Sim, l, r *bat.Pairs, h hashtab.Hash) (*JoinIndex, error) {
	if h == nil {
		h = hashtab.Identity
	}
	var wh, whClus float64
	if sim != nil {
		wh = sim.Machine().Cost.Wh
		whClus = sim.Machine().Cost.WhClus
		l.Bind(sim)
		r.Bind(sim)
	}
	tab := hashtab.New(r.Len(), h)
	tab.Build(sim, r)
	if sim != nil {
		sim.AddCPU(1, whClus)
		sim.AddCPU(l.Len(), wh)
	}
	sink := newJoinSink(sim, l.Len(), 0)
	for i := range l.BUNs {
		if sim != nil {
			sim.Read(l.Addr(i), bat.PairSize)
		}
		lh, key := l.BUNs[i].Head, l.BUNs[i].Tail
		tab.Probe(sim, r, key, func(pos int32) {
			sink.emit(lh, r.BUNs[pos].Head)
		})
		if sim != nil && i&4095 == 4095 && sim.Exhausted() {
			return nil, fmt.Errorf("core: simple hash-join: %w", memsim.ErrBudget)
		}
	}
	return sink.result(), nil
}

// SortMergeJoin sorts copies of both operands on the join key with
// radix sort [Knu68] and merges them. The paper dismisses it for main
// memory — sorting both relations causes random access over an even
// larger region than hash-join (§3.2) — and Figure 13 confirms it;
// it is implemented as that baseline.
func SortMergeJoin(sim *memsim.Sim, l, r *bat.Pairs) (*JoinIndex, error) {
	var wc, wr, wrOut float64
	if sim != nil {
		wc = sim.Machine().Cost.Wc
		wr = sim.Machine().Cost.Wr
		wrOut = sim.Machine().Cost.WrOut
		l.Bind(sim)
		r.Bind(sim)
	}
	// Sort working copies: the operands themselves stay unsorted, as
	// Monet BATs are immutable inputs to the join.
	ls, rs := l.Clone(), r.Clone()
	if sim != nil {
		ls.Bind(sim)
		rs.Bind(sim)
		for i := 0; i < l.Len(); i++ {
			sim.Read(l.Addr(i), bat.PairSize)
			sim.Write(ls.Addr(i), bat.PairSize)
		}
		for i := 0; i < r.Len(); i++ {
			sim.Read(r.Addr(i), bat.PairSize)
			sim.Write(rs.Addr(i), bat.PairSize)
		}
	}
	sortx.SortPairs(sim, ls, nil)
	sortx.SortPairs(sim, rs, nil)
	if sim != nil {
		// Four radix-sort passes of scatter work per relation, plus the
		// merge walk.
		sim.AddCPU(4*(ls.Len()+rs.Len()), wc)
		sim.AddCPU(ls.Len()+rs.Len(), wr)
		if sim.Exhausted() {
			return nil, fmt.Errorf("core: sort-merge join: %w", memsim.ErrBudget)
		}
	}
	sink := newJoinSink(sim, l.Len(), wrOut)
	sortx.MergeJoinSorted(sim, ls, rs, sink.emit)
	return sink.result(), nil
}

// NestedLoopJoin is the quadratic reference join used by tests and as
// the degenerate baseline; it is exact for any input.
func NestedLoopJoin(sim *memsim.Sim, l, r *bat.Pairs) (*JoinIndex, error) {
	var wr, wrOut float64
	if sim != nil {
		wr = sim.Machine().Cost.Wr
		wrOut = sim.Machine().Cost.WrOut
		l.Bind(sim)
		r.Bind(sim)
	}
	sink := newJoinSink(sim, l.Len(), wrOut)
	for i := range l.BUNs {
		if sim != nil {
			sim.Read(l.Addr(i), bat.PairSize)
			sim.AddCPU(r.Len(), wr)
		}
		lh, key := l.BUNs[i].Head, l.BUNs[i].Tail
		for j := range r.BUNs {
			if sim != nil {
				sim.Read(r.Addr(j), bat.PairSize)
			}
			if r.BUNs[j].Tail == key {
				sink.emit(lh, r.BUNs[j].Head)
			}
		}
		if sim != nil && i&255 == 255 && sim.Exhausted() {
			return nil, fmt.Errorf("core: nested-loop join: %w", memsim.ErrBudget)
		}
	}
	return sink.result(), nil
}

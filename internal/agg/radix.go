// Radix-partitioned grouping: the paper's signature remedy (§4's
// radix-cluster) applied to the aggregation operator of §3.2. Hash
// grouping is superior exactly as long as its table fits the memory
// caches; once the group count grows past that, every aggregate update
// is a RAM-latency random access. RadixGroup restores the
// cache-resident regime: cluster the (key, value) feed on the low B
// bits of the group key into 2^B partitions — B chosen so one
// partition's group table fits well inside L1 — then fold every
// partition independently through one small, reused Table. Partitions
// own disjoint key sets by construction, so the per-partition results
// concatenate in partition order with no merge step at all.
package agg

import (
	"fmt"

	"monetlite/internal/bat"
	"monetlite/internal/core"
	"monetlite/internal/memsim"
)

// PairBytes is the footprint of one (key, value) tuple of the
// aggregation feed the radix passes cluster: an 8-byte key plus an
// 8-byte measure.
const PairBytes = core.KVPairBytes

// GroupTableBytesPerGroup is the cost model's footprint of one group
// in a grouping hash table: the "≈48 bytes/group" the planner's
// grouping costs (groupCost, radixGroupCost), the radix-bit choice
// (radixBitsFor) and the pipeline's vector sizing share. It is a
// model constant, not a measure of Table's layout.
const GroupTableBytesPerGroup = 48

// RadixGroup aggregates measure per distinct key by radix-clustering
// the feed on the low `bits` key bits (in `passes` stable counting-sort
// passes, core.RadixClusterKV) and folding each of the 2^bits
// partitions through one Table, drained after every partition. Group
// rows appear in (partition, first-seen) order; SortByKey
// canonicalizes. bits == 0 degenerates to HashGroup. Because the
// clustering is stable, each group accumulates its measure in input
// order — exactly as HashGroup does — so the aggregates (float sums
// included) are bit-identical to HashGroup's.
//
// Instrumented runs mirror the feed's materialization, the cluster
// passes (core.RadixClusterKVSim: one histogram read plus one read and
// one write of the 16-byte pair per tuple per pass), one read of every
// clustered pair and the table's probes into sim, so the experiments
// can count how partitioning converts RAM-latency probes into cache
// hits.
func RadixGroup(sim *memsim.Sim, keys bat.Vector, measure *bat.F64Vec, bits, passes int) (*GroupResult, error) {
	if err := validate(keys, measure); err != nil {
		return nil, err
	}
	if err := core.CheckBits(bits); err != nil {
		return nil, fmt.Errorf("agg: %w", err)
	}
	if bits == 0 {
		return HashGroup(sim, keys, measure)
	}
	if passes < 1 || passes > bits {
		return nil, fmt.Errorf("agg: %d passes invalid for %d bits", passes, bits)
	}

	// Widen the keys into the int64 feed the first cluster pass reads;
	// the measure column is the feed's value array as it is.
	keys.Bind(sim)
	measure.Bind(sim)
	n := keys.Len()
	ks := make([]int64, n)
	for i := range ks {
		ks[i] = keys.Int(i)
	}
	var (
		ck    []int64
		cv    []float64
		offs  []int
		pairs uint64 // simulated address of the clustered pairs
		err   error
	)
	if sim == nil {
		ck, cv, offs, err = core.RadixClusterKV(ks, measure.V, bits, passes, core.Serial())
	} else {
		feed, wTuple := sim.Alloc(PairBytes*n), sim.Machine().Cost.WScanBUN
		for i := 0; i < n; i++ {
			keys.Touch(sim, i)
			measure.Touch(sim, i)
			sim.Write(feed+uint64(i)*PairBytes, PairBytes)
			sim.AddCPU(1, wTuple)
		}
		ck, cv, offs, pairs, err = core.RadixClusterKVSim(sim, ks, measure.V, feed, bits, passes)
	}
	if err != nil {
		return nil, err
	}

	// Fold each partition through one table; the probes hit the caches
	// because the per-partition footprint was sized to.
	res := &GroupResult{}
	var t Table
	t.Presize(0, sim)
	for p := 0; p+1 < len(offs); p++ {
		lo, hi := offs[p], offs[p+1]
		if sim != nil {
			for i := lo; i < hi; i++ {
				sim.Read(pairs+uint64(i)*PairBytes, PairBytes)
			}
		}
		t.Fold(ck[lo:hi], cv[lo:hi])
		t.Drain(res)
	}
	return res, nil
}

// Reserve grows the result's backing arrays to hold at least n group
// rows, so partition-order appends do not reallocate mid-run.
func (g *GroupResult) Reserve(n int) {
	if cap(g.Key) >= n {
		return
	}
	key := make([]int64, len(g.Key), n)
	copy(key, g.Key)
	g.Key = key
	cnt := make([]int64, len(g.Count), n)
	copy(cnt, g.Count)
	g.Count = cnt
	for _, f := range []*[]float64{&g.Sum, &g.Min, &g.Max} {
		v := make([]float64, len(*f), n)
		copy(v, *f)
		*f = v
	}
}

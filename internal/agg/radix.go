// Radix-partitioned grouping: the paper's signature remedy (§4's
// radix-cluster) applied to the aggregation operator of §3.2. Hash
// grouping is superior exactly as long as its table fits the memory
// caches; once the group count grows past that, every aggregate update
// is a RAM-latency random access. RadixGroup restores the
// cache-resident regime: cluster the (key, value) feed on the low B
// bits of the group key into 2^B partitions — B chosen so one
// partition's group table fits well inside L1 — then aggregate every
// partition independently with a small hash table. Partitions own
// disjoint key sets by construction, so the per-partition results
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
const PairBytes = 16

// GroupTableBytesPerGroup is the modelled footprint one group
// contributes to a grouping hash table: a 12-byte chained entry, a
// 32-byte aggregate row and ~4 bytes of bucket heads — the "≈48
// bytes/group" the cost models and the radix-bit choice share.
const GroupTableBytesPerGroup = 48

// RadixGroup aggregates measure per distinct key by radix-clustering
// the feed on the low `bits` key bits (in `passes` stable counting-sort
// passes) and hash-grouping each of the 2^bits partitions
// independently. Group rows appear in (partition, first-seen) order;
// SortByKey canonicalizes. bits == 0 degenerates to HashGroup. Because
// the clustering is stable, each group accumulates its measure in
// input order — exactly as HashGroup does — so the aggregates
// (float sums included) are bit-identical to HashGroup's.
//
// Instrumented runs mirror the cluster passes (one histogram read plus
// one read and one write of the 16-byte pair per tuple per pass) and
// the per-partition table probes into sim, so the experiments can
// count how partitioning converts RAM-latency probes into cache hits.
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

	// Materialize the (key, value) feed into flat pair arrays — the
	// input of the first cluster pass.
	keys.Bind(sim)
	measure.Bind(sim)
	n := keys.Len()
	ks := make([]int64, n)
	vs := make([]float64, n)
	var wTuple float64
	var feedBase uint64
	if sim != nil {
		wTuple = sim.Machine().Cost.WScanBUN
		feedBase = sim.Alloc(PairBytes * n)
	}
	for i := 0; i < n; i++ {
		keys.Touch(sim, i)
		measure.Touch(sim, i)
		if sim != nil {
			sim.Write(feedBase+uint64(i)*PairBytes, PairBytes)
			sim.AddCPU(1, wTuple)
		}
		ks[i] = keys.Int(i)
		vs[i] = measure.Float(i)
	}

	if sim == nil {
		ck, cv, offs, err := core.RadixClusterKV(ks, vs, bits, passes, core.Serial())
		if err != nil {
			return nil, err
		}
		res := &GroupResult{}
		var pa PartitionAggregator
		for p := 0; p+1 < len(offs); p++ {
			pa.AggregateInto(res, ck[offs[p]:offs[p+1]], cv[offs[p]:offs[p+1]])
		}
		return res, nil
	}
	return radixGroupSim(sim, ks, vs, bits, passes, feedBase)
}

// radixGroupSim is the instrumented serial path: the feed clustered by
// ClusterSim, then one small (cache-resident, by choice of bits) group
// table per partition.
func radixGroupSim(sim *memsim.Sim, ks []int64, vs []float64, bits, passes int, feedBase uint64) (*GroupResult, error) {
	wTuple := sim.Machine().Cost.WScanBUN
	kSrc, vSrc, regions, srcBase := ClusterSim(sim, ks, vs, bits, passes, feedBase)

	// Aggregate each partition with its own small table; the probes hit
	// the caches because the per-partition footprint was sized to.
	res := &GroupResult{}
	for p := 0; p+1 < len(regions); p++ {
		lo, hi := regions[p], regions[p+1]
		if lo == hi {
			continue
		}
		t := newGroupTable(sim, hi-lo)
		base := len(res.Key)
		for i := lo; i < hi; i++ {
			sim.Read(srcBase+uint64(i)*PairBytes, PairBytes)
			k, v := kSrc[i], vSrc[i]
			s := base + int(t.slot(sim, k))
			if s == len(res.Key) {
				res.Key = append(res.Key, k)
				res.Count = append(res.Count, 0)
				res.Sum = append(res.Sum, 0)
				res.Min = append(res.Min, v)
				res.Max = append(res.Max, v)
			}
			// Read-modify-write of the 32-byte aggregate row.
			sim.Read(t.aggBase+uint64(s-base)*32, 32)
			sim.Write(t.aggBase+uint64(s-base)*32, 32)
			sim.AddCPU(1, wTuple)
			res.Count[s]++
			res.Sum[s] += v
			if v < res.Min[s] {
				res.Min[s] = v
			}
			if v > res.Max[s] {
				res.Max[s] = v
			}
		}
	}
	return res, nil
}

// ClusterSim is core.RadixClusterKV's serial algorithm (bits ≥ 1, a
// valid pass count) for instrumented runs: the same stable multi-pass
// clustering of the (key, value) pairs held at simulated address
// srcBase, every pair access mirrored into sim — one histogram read per
// tuple per pass, then a read and a write of the 16-byte pair in the
// scatter, plus Wc of CPU per tuple per pass. It returns the clustered
// copies, the partition offsets (partition p at [offs[p], offs[p+1]))
// and the simulated address of the clustered pairs. Raw slices carry no
// simulated-address mapping, so the mirroring lives here;
// TestClusterSimMatchesRadixClusterKV pins the two implementations in
// lockstep — an algorithmic change to either side fails it loudly.
func ClusterSim(sim *memsim.Sim, ks []int64, vs []float64, bits, passes int, srcBase uint64) ([]int64, []float64, []int, uint64) {
	n := len(ks)
	wc := sim.Machine().Cost.Wc
	split := core.EvenBitSplit(bits, passes)

	kA, vA := make([]int64, n), make([]float64, n)
	kB, vB := []int64(nil), []float64(nil)
	baseA := sim.Alloc(PairBytes * n)
	var baseB uint64
	if len(split) > 1 {
		kB, vB = make([]int64, n), make([]float64, n)
		baseB = sim.Alloc(PairBytes * n)
	}

	kSrc, vSrc := ks, vs
	kDst, vDst, dstBase := kA, vA, baseA
	dstIsA := true
	regions := []int{0, n}
	bitsDone := 0
	for p, bp := range split {
		shift := uint(bits - bitsDone - bp)
		hp := 1 << bp
		mask := uint64(hp - 1)
		nr := len(regions) - 1
		newRegions := make([]int, 0, nr*hp+1)
		cursors := make([]int, hp)
		for r := 0; r < nr; r++ {
			lo, hi := regions[r], regions[r+1]
			for d := range cursors {
				cursors[d] = 0
			}
			// Histogram: one sequential read per tuple.
			for i := lo; i < hi; i++ {
				sim.Read(srcBase+uint64(i)*PairBytes, PairBytes)
				cursors[(uint64(kSrc[i])>>shift)&mask]++
			}
			pos := lo
			for d := 0; d < hp; d++ {
				newRegions = append(newRegions, pos)
				c := cursors[d]
				cursors[d] = pos
				pos += c
			}
			// Scatter: the randomly-written Hp regions of Figure 5/6.
			for i := lo; i < hi; i++ {
				d := (uint64(kSrc[i]) >> shift) & mask
				at := cursors[d]
				sim.Read(srcBase+uint64(i)*PairBytes, PairBytes)
				sim.Write(dstBase+uint64(at)*PairBytes, PairBytes)
				kDst[at] = kSrc[i]
				vDst[at] = vSrc[i]
				cursors[d] = at + 1
			}
		}
		newRegions = append(newRegions, n)
		regions = newRegions
		sim.AddCPU(n, wc)
		bitsDone += bp
		switch {
		case p == len(split)-1:
			kSrc, vSrc, srcBase = kDst, vDst, dstBase
		case dstIsA:
			kSrc, vSrc, srcBase = kA, vA, baseA
			kDst, vDst, dstBase = kB, vB, baseB
		default:
			kSrc, vSrc, srcBase = kB, vB, baseB
			kDst, vDst, dstBase = kA, vA, baseA
		}
		dstIsA = !dstIsA
	}
	return kSrc, vSrc, regions, srcBase
}

// PartitionAggregator is a reusable grouping table for aggregating one
// radix partition at a time on the native path, appending that
// partition's group rows to a caller-owned GroupResult. The bucket and
// chain arrays are reused across every partition the owner drains
// (RadixGroup keeps one per call), so steady-state aggregation
// allocates only the output rows.
type PartitionAggregator struct {
	head []int32
	next []int32
}

// AggregateInto groups one partition's (key, value) feed into res.
// New groups append in first-seen order; existing group rows of res
// (from earlier partitions) are never touched, because partitions own
// disjoint key sets.
//
//monet:kernel
func (pa *PartitionAggregator) AggregateInto(res *GroupResult, keys []int64, vals []float64) {
	if len(keys) == 0 {
		return
	}
	buckets := 16
	for buckets < 2*len(keys) && buckets < 1<<20 {
		buckets <<= 1
	}
	if cap(pa.head) < buckets {
		pa.head = make([]int32, buckets)
	}
	head := pa.head[:buckets]
	for i := range head {
		head[i] = -1
	}
	mask := uint32(buckets - 1)
	next := pa.next[:0]
	base := len(res.Key)
	for i, k := range keys {
		h := uint32(uint64(k)*0x9e3779b97f4a7c15>>33) & mask
		s := int32(-1)
		for e := head[h]; e != -1; e = next[e] {
			if res.Key[base+int(e)] == k {
				s = e
				break
			}
		}
		v := vals[i]
		if s == -1 {
			s = int32(len(next))
			next = append(next, head[h])
			head[h] = s
			res.Key = append(res.Key, k)
			res.Count = append(res.Count, 0)
			res.Sum = append(res.Sum, 0)
			res.Min = append(res.Min, v)
			res.Max = append(res.Max, v)
		}
		j := base + int(s)
		res.Count[j]++
		res.Sum[j] += v
		if v < res.Min[j] {
			res.Min[j] = v
		}
		if v > res.Max[j] {
			res.Max[j] = v
		}
	}
	pa.next = next
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

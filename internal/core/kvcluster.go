// Radix-cluster of (key, value) runs: the §3.3 multi-pass counting
// sort applied to the aggregation feed — an int64 group-key column and
// its float64 measure column — instead of 8-byte BUNs. The engine's
// radix-partitioned GroupAggregate clusters each morsel's run of pairs
// this way so every partition's group table stays cache-resident, the
// same remedy the paper applies to the join's inner relation.
package core

import (
	"fmt"

	"monetlite/internal/memsim"
)

// KVPairBytes is the simulated footprint of one (key, value) tuple: an
// 8-byte key plus an 8-byte measure.
const KVPairBytes = 16

// RadixClusterKV radix-clusters the parallel keys/vals arrays on the
// low `bits` bits of the key into 2^bits partitions, in `passes`
// counting-sort passes with an even bit split (§3.4.2). The inputs are
// never modified; the returned arrays are clustered copies (bits == 0
// returns the inputs unclustered, zero-copy) and offsets delimit
// partition p at [offsets[p], offsets[p+1]).
//
// Clustering is stable — tuples keep their input order within each
// partition — and byte-identical for any Parallelism (radixPasses).
// Keys partition by their low bits directly (two's complement, so
// negative keys cluster fine); no hash is applied — partitions own
// disjoint key sets by construction, which is what lets the
// aggregation concatenate per-partition results without a merge.
func RadixClusterKV(keys []int64, vals []float64, bits, passes int, opt Options) ([]int64, []float64, []int, error) {
	return RadixClusterKVRange(keys, vals, 0, 0, bits, passes, opt)
}

// RadixClusterKVRange is RadixClusterKV on bits [start, start+bits) of
// key−lo (unsigned) instead of the key's low bits. With every key−lo
// below 2^(start+bits) these are its high bits: partition p holds the
// keys in [lo + p·2^start, lo + (p+1)·2^start), so the partitions
// ascend in key order — range partitioning, for a dense key range
// whose windows of 2^start keys each fit the cache.
func RadixClusterKVRange(keys []int64, vals []float64, lo int64, start, bits, passes int, opt Options) ([]int64, []float64, []int, error) {
	l := &kvRuns{keys: [3][]int64{keys}, vals: [3][]float64{vals}, base: uint64(lo)}
	out, offsets, err := clusterKV(l, l, start, bits, passes, opt.Workers())
	if err != nil {
		return nil, nil, nil, err
	}
	return l.keys[out], l.vals[out], offsets, nil
}

// RadixClusterKVSim is RadixClusterKV for instrumented runs: the same
// clustering, run serially, with the (key, value) pairs held at
// simulated address addr. Every pass mirrors one histogram read per
// tuple, then a read and a write of the 16-byte pair in the scatter,
// plus Wc of CPU per tuple. It also returns the simulated address of
// the clustered pairs.
func RadixClusterKVSim(sim *memsim.Sim, keys []int64, vals []float64, addr uint64, bits, passes int) ([]int64, []float64, []int, uint64, error) {
	return RadixClusterKVRangeSim(sim, keys, vals, addr, 0, 0, bits, passes)
}

// RadixClusterKVRangeSim is RadixClusterKVRange for instrumented runs,
// mirrored as RadixClusterKVSim.
func RadixClusterKVRangeSim(sim *memsim.Sim, keys []int64, vals []float64, addr uint64, lo int64, start, bits, passes int) ([]int64, []float64, []int, uint64, error) {
	l := &kvRunsSim{kvRuns: kvRuns{keys: [3][]int64{keys}, vals: [3][]float64{vals}, base: uint64(lo)}, sim: sim, addr: [3]uint64{addr}}
	out, offsets, err := clusterKV(l, &l.kvRuns, start, bits, passes, 1)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	return l.keys[out], l.vals[out], offsets, l.addr[out], nil
}

// clusterKV validates a (key, value) clustering of kv's input on bits
// [start, start+bits) and runs it through layout l, returning the
// buffer holding the result.
func clusterKV(l clusterLayout, kv *kvRuns, start, bits, passes, workers int) (int, []int, error) {
	if err := CheckBits(bits); err != nil {
		return 0, nil, err
	}
	if start < 0 || start+bits > 64 {
		return 0, nil, fmt.Errorf("core: digit bits [%d, %d) outside a 64-bit key", start, start+bits)
	}
	n := len(kv.keys[0])
	if n != len(kv.vals[0]) {
		return 0, nil, fmt.Errorf("core: key column length %d != value length %d", n, len(kv.vals[0]))
	}
	if bits == 0 {
		return 0, []int{0, n}, nil
	}
	if passes < 1 || passes > bits {
		return 0, nil, fmt.Errorf("core: %d passes invalid for %d bits", passes, bits)
	}
	return radixPasses(l, n, EvenBitSplit(bits, passes), uint(start), workers)
}

// kvRuns is the (key, value) layout: parallel key and value arrays,
// clustered on the bits of key−base (unsigned) that radixPasses asks for.
type kvRuns struct {
	keys [3][]int64
	vals [3][]float64
	base uint64
}

func (l *kvRuns) scratch(b int) {
	n := len(l.keys[0])
	l.keys[b], l.vals[b] = make([]int64, n), make([]float64, n)
}

func (l *kvRuns) passDone(int) error { return nil }

//monet:kernel
func (l *kvRuns) count(src, lo, hi int, shift uint, hist []int) {
	kSrc, base, mask := l.keys[src], l.base, uint64(len(hist)-1)
	for i := lo; i < hi; i++ {
		hist[((uint64(kSrc[i])-base)>>shift)&mask]++
	}
}

//monet:kernel
func (l *kvRuns) scatter(src, dst, lo, hi int, shift uint, cur []int) {
	kSrc, vSrc, kDst, vDst := l.keys[src], l.vals[src], l.keys[dst], l.vals[dst]
	base, mask := l.base, uint64(len(cur)-1)
	for i := lo; i < hi; i++ {
		d := ((uint64(kSrc[i]) - base) >> shift) & mask
		at := cur[d]
		kDst[at] = kSrc[i]
		vDst[at] = vSrc[i]
		cur[d] = at + 1
	}
}

// kvRunsSim is the (key, value) layout under a simulator: raw slices
// carry no simulated-address mapping, so it keeps one address per
// buffer and mirrors every pair access at addr + i·KVPairBytes.
type kvRunsSim struct {
	kvRuns
	sim  *memsim.Sim
	addr [3]uint64
}

func (l *kvRunsSim) scratch(b int) {
	l.kvRuns.scratch(b)
	l.addr[b] = l.sim.Alloc(KVPairBytes * len(l.keys[0]))
}

func (l *kvRunsSim) count(src, lo, hi int, shift uint, hist []int) {
	kSrc, addr, mask := l.keys[src], l.addr[src], uint64(len(hist)-1)
	for i := lo; i < hi; i++ {
		l.sim.Read(addr+uint64(i)*KVPairBytes, KVPairBytes)
		hist[((uint64(kSrc[i])-l.base)>>shift)&mask]++
	}
}

// scatter: the randomly-written Hp regions of Figure 5/6.
func (l *kvRunsSim) scatter(src, dst, lo, hi int, shift uint, cur []int) {
	kSrc, vSrc, kDst, vDst := l.keys[src], l.vals[src], l.keys[dst], l.vals[dst]
	mask := uint64(len(cur) - 1)
	for i := lo; i < hi; i++ {
		d := ((uint64(kSrc[i]) - l.base) >> shift) & mask
		at := cur[d]
		l.sim.Read(l.addr[src]+uint64(i)*KVPairBytes, KVPairBytes)
		l.sim.Write(l.addr[dst]+uint64(at)*KVPairBytes, KVPairBytes)
		kDst[at] = kSrc[i]
		vDst[at] = vSrc[i]
		cur[d] = at + 1
	}
}

func (l *kvRunsSim) passDone(int) error {
	l.sim.AddCPU(len(l.keys[0]), l.sim.Machine().Cost.Wc)
	return nil
}

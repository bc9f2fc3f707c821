// Radix-cluster kernel for (key, value) pairs: the §3.3 multi-pass
// counting sort applied to the aggregation feed — an int64 group-key
// column and its float64 measure column — instead of 8-byte BUNs. The
// engine's radix-partitioned GroupAggregate clusters each morsel's run
// of pairs with this kernel so every partition's group table stays
// cache-resident, the same remedy the paper applies to the join's
// inner relation.
package core

import "fmt"

// RadixClusterKV radix-clusters the parallel keys/vals arrays on the
// low `bits` bits of the key into 2^bits partitions, in `passes`
// counting-sort passes with an even bit split (§3.4.2). The inputs are
// never modified; the returned arrays are clustered copies (bits == 0
// returns the inputs unclustered, zero-copy) and offsets delimit
// partition p at [offsets[p], offsets[p+1]).
//
// Clustering is stable — tuples keep their input order within each
// partition — and the parallel path (per-worker histogram → prefix sum
// → scatter into disjoint cursor ranges, exactly the scheme of
// RadixClusterSplitOpts) produces output byte-identical to serial for
// any Parallelism. Keys partition by their low bits directly (two's
// complement, so negative keys cluster fine); no hash is applied —
// partitions own disjoint key sets by construction, which is what lets
// the aggregation concatenate per-partition results without a merge.
//
//monet:kernel
func RadixClusterKV(keys []int64, vals []float64, bits, passes int, opt Options) ([]int64, []float64, []int, error) {
	if err := CheckBits(bits); err != nil {
		return nil, nil, nil, err
	}
	if len(keys) != len(vals) {
		//monet:allow hotalloc cold argument-validation error path
		return nil, nil, nil, fmt.Errorf("core: key column length %d != value length %d", len(keys), len(vals))
	}
	if bits == 0 {
		return keys, vals, []int{0, len(keys)}, nil
	}
	if passes < 1 || passes > bits {
		//monet:allow hotalloc cold argument-validation error path
		return nil, nil, nil, fmt.Errorf("core: %d passes invalid for %d bits", passes, bits)
	}
	split := EvenBitSplit(bits, passes)
	n := len(keys)
	workers := clampWorkers(opt.workers(), n)

	// Ping-pong between two scratch pairs; the input is never written.
	kA, vA := make([]int64, n), make([]float64, n)
	var kB []int64
	var vB []float64
	if passes > 1 {
		kB, vB = make([]int64, n), make([]float64, n)
	}

	// A region larger than one worker's share of a pass splits across
	// the whole pool; the rest fan out one region per worker (the first
	// pass is always one big region).
	bigRegion := n / workers
	if bigRegion < minParallelRegion {
		bigRegion = minParallelRegion
	}

	kSrc, vSrc := keys, vals
	kDst, vDst := kA, vA
	dstIsA := true
	regions := []int{0, n}
	bitsDone := 0
	for p, bp := range split {
		shift := uint(bits - bitsDone - bp) // cluster on bits [shift, shift+bp)
		hp := 1 << bp
		mask := uint64(hp - 1)
		nr := len(regions) - 1
		//monet:allow hotalloc one region table per pass (<= 3 passes), not per tuple
		newRegions := make([]int, nr*hp+1)
		newRegions[nr*hp] = n
		if workers <= 1 {
			//monet:allow hotalloc one cursor array per pass (<= 3 passes), not per tuple
			cursors := make([]int, hp)
			for r := 0; r < nr; r++ {
				clusterKVRegion(kSrc, vSrc, kDst, vDst, regions[r], regions[r+1],
					shift, mask, hp, cursors, newRegions[r*hp:(r+1)*hp])
			}
		} else {
			var small []int
			for r := 0; r < nr; r++ {
				if regions[r+1]-regions[r] > bigRegion {
					clusterKVRegionParallel(kSrc, vSrc, kDst, vDst, regions[r], regions[r+1],
						shift, mask, hp, workers, newRegions[r*hp:(r+1)*hp])
				} else {
					//monet:allow hotalloc small-region list grows once per pass, bounded by region count
					small = append(small, r)
				}
			}
			kvRegionFanOut(kSrc, vSrc, kDst, vDst, regions, small, shift, mask, hp, workers, newRegions)
		}
		regions = newRegions
		bitsDone += bp
		switch {
		case p == len(split)-1:
			kSrc, vSrc = kDst, vDst // final result
		case dstIsA:
			kSrc, vSrc, kDst, vDst = kA, vA, kB, vB
		default:
			kSrc, vSrc, kDst, vDst = kB, vB, kA, vA
		}
		dstIsA = !dstIsA
	}
	return kSrc, vSrc, regions, nil
}

// clusterKVRegion clusters region [lo, hi) of one pass serially:
// histogram, prefix sum (recording the hp partition boundaries in
// bounds), stable scatter. cursors is caller-owned scratch of hp ints.
//
//monet:kernel
func clusterKVRegion(kSrc []int64, vSrc []float64, kDst []int64, vDst []float64,
	lo, hi int, shift uint, mask uint64, hp int, cursors, bounds []int) {
	for d := range cursors[:hp] {
		cursors[d] = 0
	}
	for i := lo; i < hi; i++ {
		cursors[(uint64(kSrc[i])>>shift)&mask]++
	}
	pos := lo
	for d := 0; d < hp; d++ {
		bounds[d] = pos
		c := cursors[d]
		cursors[d] = pos
		pos += c
	}
	for i := lo; i < hi; i++ {
		d := (uint64(kSrc[i]) >> shift) & mask
		at := cursors[d]
		kDst[at] = kSrc[i]
		vDst[at] = vSrc[i]
		cursors[d] = at + 1
	}
}

// kvRegionFanOut runs the listed independent regions of a pass on a
// worker pool, one region per worker at a time; region r writes its hp
// boundaries into newRegions[r*hp : (r+1)*hp].
//
//monet:kernel
func kvRegionFanOut(kSrc []int64, vSrc []float64, kDst []int64, vDst []float64,
	regions, regionIdx []int, shift uint, mask uint64, hp, workers int, newRegions []int) {
	if workers > len(regionIdx) {
		workers = len(regionIdx)
	}
	scratch := make([][]int, workers)
	//monet:allow kernalloc per-worker fan-out: one launch and one closure per worker, amortized over the region batch
	forEachIndex(workers, len(regionIdx), func(w, i int) {
		cursors := scratch[w]
		if cursors == nil {
			cursors = make([]int, hp)
			scratch[w] = cursors
		}
		r := regionIdx[i]
		clusterKVRegion(kSrc, vSrc, kDst, vDst, regions[r], regions[r+1],
			shift, mask, hp, cursors, newRegions[r*hp:(r+1)*hp])
	})
}

// clusterKVRegionParallel clusters one region with chunked per-worker
// histograms, a serial prefix sum over (digit, worker), and a parallel
// scatter: worker w's cursor for digit d starts where the digit-d
// tuples of workers < w end, so every tuple lands exactly where the
// serial scatter would put it (stability preserved).
//
//monet:kernel
func clusterKVRegionParallel(kSrc []int64, vSrc []float64, kDst []int64, vDst []float64,
	lo, hi int, shift uint, mask uint64, hp, workers int, bounds []int) {
	n := hi - lo
	workers = clampWorkers(workers, n)
	//monet:allow kernalloc bounds helper allocated once per region, not per tuple
	chunk := func(w int) (int, int) {
		return lo + w*n/workers, lo + (w+1)*n/workers
	}
	counts := make([][]int, workers)
	//monet:allow kernalloc per-worker fan-out: one launch and one closure per worker, amortized over the region
	forEachIndex(workers, workers, func(_, w int) {
		c := make([]int, hp)
		clo, chi := chunk(w)
		for i := clo; i < chi; i++ {
			c[(uint64(kSrc[i])>>shift)&mask]++
		}
		counts[w] = c
	})
	pos := lo
	for d := 0; d < hp; d++ {
		bounds[d] = pos
		for w := 0; w < workers; w++ {
			c := counts[w][d]
			counts[w][d] = pos
			pos += c
		}
	}
	//monet:allow kernalloc per-worker fan-out: one launch and one closure per worker, amortized over the region
	forEachIndex(workers, workers, func(_, w int) {
		cur := counts[w]
		clo, chi := chunk(w)
		for i := clo; i < chi; i++ {
			d := (uint64(kSrc[i]) >> shift) & mask
			at := cur[d]
			kDst[at] = kSrc[i]
			vDst[at] = vSrc[i]
			cur[d] = at + 1
		}
	})
}

// Package core implements the paper's primary contribution (§3.3): the
// multi-pass radix-cluster algorithm and the two cluster-based equi-join
// algorithms built on it — partitioned hash-join and radix-join — plus
// the baseline joins they are compared against (non-partitioned hash
// join, sort-merge join) and the §3.4.4 strategy planner that picks the
// number of radix bits B and passes P for a given cardinality and
// machine.
//
// The radix-cluster pass structure is written once (radixPasses) and
// moves tuples through a clusterLayout: BUN pairs clustered on a hash
// of their tail, or (int64 key, float64 value) runs clustered on the
// key. Each layout has a native kernel pair and a simulated one; the
// simulated kernels mirror every tuple access into a memsim.Sim at
// stable simulated addresses, producing the exact L1/L2/TLB miss
// counts the paper reads from the R10000 hardware counters. The join
// phases likewise have one native and one simulated per-cluster kernel
// each (join.go), which the simple hash and nested-loop joins run once
// on their whole inputs (B = 0).
package core

import (
	"fmt"

	"monetlite/internal/bat"
	"monetlite/internal/hashtab"
	"monetlite/internal/memsim"
)

// MaxBits caps the number of radix bits: 2^26 clusters of offsets is
// the largest boundary structure we allow (the paper sweeps B ≤ 25).
const MaxBits = 26

// CheckBits validates a radix-bit count. Anything outside [0, MaxBits]
// is rejected: Go defines shifts ≥ the operand width, so an oversized
// B would not crash but silently produce a wrong clustering.
func CheckBits(bits int) error {
	if bits < 0 || bits > MaxBits {
		return fmt.Errorf("core: radix bits %d outside [0, %d]", bits, MaxBits)
	}
	return nil
}

// checkSplit validates a per-pass bit schedule and returns the total
// bit count.
func checkSplit(split []int) (int, error) {
	bits := 0
	for _, bp := range split {
		if bp < 1 {
			return 0, fmt.Errorf("core: pass with %d bits", bp)
		}
		bits += bp
	}
	if bits < 1 || bits > MaxBits {
		return 0, fmt.Errorf("core: total radix bits %d outside [1, %d]", bits, MaxBits)
	}
	return bits, nil
}

// Clustered is a radix-clustered BAT: tuples reordered so that all
// tuples whose hash value agrees on the lower Bits bits are contiguous.
// Offsets[k] .. Offsets[k+1] delimit cluster k. The paper notes the
// boundaries need not be stored (the radix bits themselves mark them);
// we keep the offsets the clustering pass computes anyway, as Monet's
// implementation does for the merge step.
type Clustered struct {
	Pairs   *bat.Pairs
	Bits    int
	Offsets []int // length 2^Bits + 1
	hash    hashtab.Hash
}

// Clusters returns the number of clusters H = 2^Bits.
func (c *Clustered) Clusters() int { return 1 << c.Bits }

// ClusterLen returns the cardinality of cluster k.
func (c *Clustered) ClusterLen(k int) int { return c.Offsets[k+1] - c.Offsets[k] }

// Validate checks the clustering invariant: every tuple lies in the
// cluster its radix value selects, and offsets are monotone and cover
// the BAT exactly.
func (c *Clustered) Validate() error {
	if len(c.Offsets) != c.Clusters()+1 {
		return fmt.Errorf("core: %d offsets for %d clusters", len(c.Offsets), c.Clusters())
	}
	if c.Offsets[0] != 0 || c.Offsets[len(c.Offsets)-1] != c.Pairs.Len() {
		return fmt.Errorf("core: offsets do not cover the BAT")
	}
	m, mask := c.hash.Mul(), uint32(1)<<c.Bits-1
	for k := 0; k < c.Clusters(); k++ {
		if c.Offsets[k] > c.Offsets[k+1] {
			return fmt.Errorf("core: cluster %d has negative length", k)
		}
		for i := c.Offsets[k]; i < c.Offsets[k+1]; i++ {
			if got := c.Pairs.BUNs[i].Tail * m & mask; got != uint32(k) {
				return fmt.Errorf("core: tuple %d has radix %d, stored in cluster %d", i, got, k)
			}
		}
	}
	return nil
}

// EvenBitSplit distributes bits over passes as evenly as possible,
// earlier passes taking the larger share — §3.4.2 reports performance
// depends strongly on an even distribution.
func EvenBitSplit(bits, passes int) []int {
	if passes < 1 {
		return nil
	}
	split := make([]int, passes)
	base, rem := bits/passes, bits%passes
	for i := range split {
		split[i] = base
		if i < rem {
			split[i]++
		}
	}
	return split
}

// OptimalPasses returns the pass count the §3.4.2 experiments identify
// as best for clustering on B bits: at most log2(TLB entries) bits per
// pass (6 on the Origin2000: one pass up to 6 bits, two up to 12,
// three up to 18, ...).
func OptimalPasses(bits int, m memsim.Machine) int {
	if bits <= 0 {
		return 1
	}
	maxPerPass := 0
	for e := m.TLB.Entries; e > 1; e >>= 1 {
		maxPerPass++
	}
	if maxPerPass < 1 {
		maxPerPass = 1
	}
	return (bits + maxPerPass - 1) / maxPerPass
}

// RadixClusterOpts clusters in on the lower bits of the hash of Tail,
// in the given number of passes (Figure 6), distributing the bits
// evenly across passes (§3.4.2: performance depends strongly on an even
// distribution). The input BAT is not modified. With bits == 0 the
// input is returned as a single cluster without copying. A nil hash
// means identity (the experimental setup: unique uniform integer keys).
// See RadixClusterSplitOpts for the execution engine and the simulator.
func RadixClusterOpts(sim *memsim.Sim, in *bat.Pairs, bits, passes int, h hashtab.Hash, opt Options) (*Clustered, error) {
	if err := CheckBits(bits); err != nil {
		return nil, err
	}
	if bits == 0 {
		return &Clustered{Pairs: in, Bits: 0, Offsets: []int{0, in.Len()}, hash: h}, nil
	}
	if passes < 1 || passes > bits {
		return nil, fmt.Errorf("core: %d passes invalid for %d bits", passes, bits)
	}
	return RadixClusterSplitOpts(sim, in, EvenBitSplit(bits, passes), h, opt)
}

// RadixClusterSplitOpts clusters with an explicit per-pass bit schedule
// (pass p subdivides on split[p] bits, leftmost first); the §3.4.2
// bit-distribution ablation varies it. Natively the passes run on the
// configured worker pool (see radixPasses); the result is
// byte-identical for every Parallelism. With a simulator the passes run
// serially and each one charges Wc CPU per tuple and mirrors one
// histogram read plus one read and one write per tuple into sim; it
// returns memsim.ErrBudget (wrapped) once the sim's access budget is
// exhausted.
func RadixClusterSplitOpts(sim *memsim.Sim, in *bat.Pairs, split []int, h hashtab.Hash, opt Options) (*Clustered, error) {
	bits, err := checkSplit(split)
	if err != nil {
		return nil, err
	}
	p := &pairRuns{buf: [3]*bat.Pairs{in}, m: h.Mul()}
	var l clusterLayout = p
	if sim != nil {
		in.Bind(sim)
		l, opt = &pairRunsSim{pairRuns: p, sim: sim}, Serial()
	}
	out, offsets, err := radixPasses(l, in.Len(), split, opt.Workers())
	if err != nil {
		return nil, err
	}
	return &Clustered{Pairs: p.buf[out], Bits: bits, Offsets: offsets, hash: h}, nil
}

// clusterLayout is a tuple format the radix-cluster driver moves. A
// layout holds three buffers of n tuples: buffer 0 is the input, which
// is never written, and buffers 1 and 2 are the ping-pong scratch the
// driver asks for. The kernels work on one region of one pass; none of
// them allocates.
type clusterLayout interface {
	// scratch allocates ping-pong buffer b (1 or 2).
	scratch(b int)
	// count adds the pass digit of tuples [lo, hi) of buffer src — hash
	// bits [shift, shift+log2(len(hist))) — into the histogram hist.
	count(src, lo, hi int, shift uint, hist []int)
	// scatter moves tuples [lo, hi) of buffer src into buffer dst, the
	// tuple of digit d to cur[d]++, keeping their order (stable).
	scatter(src, dst, lo, hi int, shift uint, cur []int)
	// passDone closes pass p: a simulated layout charges the pass's CPU
	// and reports an exhausted access budget.
	passDone(p int) error
}

// radixPasses is the §3.3 multi-pass radix-cluster (Figure 6) of the n
// tuples in buffer 0 of l, on the per-pass bit schedule split (bits in
// total). Pass p subdivides every region of pass p-1 on the next
// split[p] bits below those already used, ping-ponging between scratch
// buffers 1 and 2. It returns the buffer that holds the clustering and
// the 2^bits+1 cluster offsets.
//
// With more than one worker a region larger than one worker's share of
// the input splits across the pool — per-worker chunk histograms, a
// serial prefix sum over (digit, worker), a parallel scatter in which
// worker w's cursor for digit d starts where the digit-d tuples of
// workers < w end — and the remaining regions fan out one per worker.
// The first pass is one big region; later passes are usually all
// small, unless the data skews into few clusters. Every tuple lands
// where the serial pass puts it, so the output is byte-identical for
// any worker count.
func radixPasses(l clusterLayout, n int, split []int, workers int) (int, []int, error) {
	bits, maxBp := 0, 0
	for _, bp := range split {
		bits += bp
		maxBp = max(maxBp, bp)
	}
	workers = clampWorkers(workers, n)
	l.scratch(1)
	if len(split) > 1 {
		l.scratch(2)
	}
	var cursors []int
	if workers <= 1 {
		cursors = make([]int, 1<<maxBp)
	}
	src, dst := 0, 1
	regions := []int{0, n}
	for p, bp := range split {
		bits -= bp
		shift := uint(bits) // cluster on bits [shift, shift+bp)
		hp := 1 << bp
		nr := len(regions) - 1
		newRegions := make([]int, nr*hp+1)
		newRegions[nr*hp] = n
		if workers <= 1 {
			for r := 0; r < nr; r++ {
				clusterRegion(l, src, dst, regions[r], regions[r+1], shift, cursors[:hp], newRegions[r*hp:(r+1)*hp])
			}
		} else {
			clusterPassParallel(l, src, dst, regions, shift, hp, workers, newRegions)
		}
		if err := l.passDone(p); err != nil {
			return 0, nil, err
		}
		regions = newRegions
		src, dst = dst, 3-dst
	}
	return src, regions, nil
}

// clusterRegion clusters region [lo, hi) of one pass serially:
// histogram, prefix sum (recording the region's len(cursors) cluster
// boundaries in bounds), stable scatter. cursors is caller-owned
// scratch.
func clusterRegion(l clusterLayout, src, dst, lo, hi int, shift uint, cursors, bounds []int) {
	clear(cursors)
	l.count(src, lo, hi, shift, cursors)
	pos := lo
	for d, c := range cursors {
		bounds[d] = pos
		cursors[d] = pos
		pos += c
	}
	l.scatter(src, dst, lo, hi, shift, cursors)
}

// clusterPassParallel runs one pass on the pool: every region larger
// than one worker's share of the input splits across all workers
// (clusterBigRegion), and the rest fan out one region per worker;
// region r writes its hp boundaries into newRegions[r*hp : (r+1)*hp].
func clusterPassParallel(l clusterLayout, src, dst int, regions []int, shift uint, hp, workers int, newRegions []int) {
	bigRegion := max(regions[len(regions)-1]/workers, minParallelRegion)
	small := make([]int, 0, len(regions)-1)
	for r := 0; r+1 < len(regions); r++ {
		if regions[r+1]-regions[r] > bigRegion {
			clusterBigRegion(l, src, dst, regions[r], regions[r+1], shift, hp, workers, newRegions[r*hp:(r+1)*hp])
		} else {
			small = append(small, r)
		}
	}
	if len(small) == 0 {
		return
	}
	scratch := make([][]int, min(workers, len(small)))
	forEachIndex(workers, len(small), func(w, i int) {
		if scratch[w] == nil {
			scratch[w] = make([]int, hp)
		}
		r := small[i]
		clusterRegion(l, src, dst, regions[r], regions[r+1], shift, scratch[w], newRegions[r*hp:(r+1)*hp])
	})
}

// clusterBigRegion clusters region [lo, hi) of one pass across the
// pool: chunked per-worker histograms, a serial prefix sum over
// (digit, worker), and a parallel scatter into the disjoint cursor
// ranges that prefix sum hands each worker.
func clusterBigRegion(l clusterLayout, src, dst, lo, hi int, shift uint, hp, workers int, bounds []int) {
	n := hi - lo
	workers = clampWorkers(workers, n)
	counts := make([][]int, workers)
	forEachIndex(workers, workers, func(_, w int) {
		counts[w] = make([]int, hp)
		l.count(src, lo+w*n/workers, lo+(w+1)*n/workers, shift, counts[w])
	})
	pos := lo
	for d := 0; d < hp; d++ {
		bounds[d] = pos
		for _, c := range counts {
			c[d], pos = pos, pos+c[d]
		}
	}
	forEachIndex(workers, workers, func(_, w int) {
		l.scatter(src, dst, lo+w*n/workers, lo+(w+1)*n/workers, shift, counts[w])
	})
}

// pairRuns is the BUN-pair layout: bat.Pairs clustered on the hash of
// their Tail, Tail·m.
type pairRuns struct {
	buf [3]*bat.Pairs
	m   uint32 // the hash's multiplier
}

func (l *pairRuns) scratch(b int) { l.buf[b] = bat.NewPairs(l.buf[0].Len()) }

func (l *pairRuns) passDone(int) error { return nil }

//monet:kernel
func (l *pairRuns) count(src, lo, hi int, shift uint, hist []int) {
	in, m, mask := l.buf[src].BUNs, l.m, uint32(len(hist)-1)
	for i := lo; i < hi; i++ {
		hist[(in[i].Tail*m>>shift)&mask]++
	}
}

//monet:kernel
func (l *pairRuns) scatter(src, dst, lo, hi int, shift uint, cur []int) {
	in, out, m, mask := l.buf[src].BUNs, l.buf[dst].BUNs, l.m, uint32(len(cur)-1)
	for i := lo; i < hi; i++ {
		bun := in[i]
		d := (bun.Tail * m >> shift) & mask
		out[cur[d]] = bun
		cur[d]++
	}
}

// pairRunsSim is the BUN-pair layout under a simulator: the same moves,
// each tuple access mirrored at the bound BATs' simulated addresses.
type pairRunsSim struct {
	*pairRuns
	sim *memsim.Sim
}

func (l *pairRunsSim) scratch(b int) {
	l.pairRuns.scratch(b)
	l.buf[b].Bind(l.sim)
}

func (l *pairRunsSim) count(src, lo, hi int, shift uint, hist []int) {
	in, m, mask := l.buf[src], l.m, uint32(len(hist)-1)
	for i := lo; i < hi; i++ {
		l.sim.Read(in.Addr(i), bat.PairSize)
		hist[(in.BUNs[i].Tail*m>>shift)&mask]++
	}
}

// scatter: the randomly-written H_p regions of Figure 5/6.
func (l *pairRunsSim) scatter(src, dst, lo, hi int, shift uint, cur []int) {
	in, out, m, mask := l.buf[src], l.buf[dst], l.m, uint32(len(cur)-1)
	for i := lo; i < hi; i++ {
		bun := in.BUNs[i]
		d := (bun.Tail * m >> shift) & mask
		l.sim.Read(in.Addr(i), bat.PairSize)
		l.sim.Write(out.Addr(cur[d]), bat.PairSize)
		out.BUNs[cur[d]] = bun
		cur[d]++
	}
}

func (l *pairRunsSim) passDone(p int) error {
	l.sim.AddCPU(l.buf[0].Len(), l.sim.Machine().Cost.Wc)
	if l.sim.Exhausted() {
		return fmt.Errorf("core: radix-cluster pass %d: %w", p+1, memsim.ErrBudget)
	}
	return nil
}

package core

import (
	"testing"

	"monetlite/internal/memsim"
	"monetlite/internal/sortx"
	"monetlite/internal/workload"
)

// §3.3.1: "If this constant gets down to 1, radix-join degenerates to
// sort/merge-join, with radix-sort employed in the sorting phase."

func TestRadixClusterFullBitsIsRadixSort(t *testing.T) {
	// Clustering on all key bits orders the relation by key — exactly
	// a radix sort (for our dense test domain).
	const n = 1 << 12
	in := workload.DensePairs(n, 3) // values are a permutation of [0, n)
	bits := 0
	for (1 << bits) < n {
		bits++
	}
	cl, err := RadixClusterOpts(nil, in, bits, 2, nil, Serial())
	if err != nil {
		t.Fatal(err)
	}
	if !sortx.IsSortedByTail(cl.Pairs) {
		t.Error("full-bit radix-cluster did not sort the relation")
	}
	// Each cluster holds exactly one tuple.
	for k := 0; k < cl.Clusters(); k++ {
		if cl.ClusterLen(k) != 1 {
			t.Fatalf("cluster %d has %d tuples, want 1", k, cl.ClusterLen(k))
		}
	}
}

func TestRadixJoinAtClusterSizeOneIsLinear(t *testing.T) {
	// With one tuple per cluster the nested loop vanishes: the join
	// phase reads each tuple O(1) times (a merge), so simulated
	// accesses stay within a small constant of the cardinality.
	const n = 1 << 14
	l, r := workload.JoinInputs(n, 5)
	bits := 0
	for (1 << bits) < n {
		bits++
	}
	lc, err := RadixClusterOpts(nil, l, bits, 3, nil, Serial())
	if err != nil {
		t.Fatal(err)
	}
	rc, err := RadixClusterOpts(nil, r, bits, 3, nil, Serial())
	if err != nil {
		t.Fatal(err)
	}
	sim := memsim.MustNew(memsim.Origin2000())
	res, err := RadixJoinClusteredOpts(sim, lc, rc, Serial())
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != n {
		t.Fatalf("result size %d", res.Len())
	}
	perTuple := float64(sim.Stats().Accesses) / float64(n)
	// Join inputs have unique uniform values over the full 32-bit
	// domain, so clusters average ≤ 1 tuple: ~1 read of each side plus
	// the result write ≈ 3–5 accesses per tuple.
	if perTuple > 8 {
		t.Errorf("accesses per tuple = %.1f, want merge-like O(1)", perTuple)
	}
}

func TestRadixJoinQuadraticBelowFineClustering(t *testing.T) {
	// Contrast: at coarse clustering the nested loop dominates.
	const n = 1 << 10
	l, r := workload.JoinInputs(n, 6)
	lc, _ := RadixClusterOpts(nil, l, 2, 1, nil, Serial())
	rc, _ := RadixClusterOpts(nil, r, 2, 1, nil, Serial())
	sim := memsim.MustNew(memsim.Origin2000())
	if _, err := RadixJoinClusteredOpts(sim, lc, rc, Serial()); err != nil {
		t.Fatal(err)
	}
	perTuple := float64(sim.Stats().Accesses) / float64(n)
	// Cluster size = n/4 = 256: the inner loop scans ~256 tuples per
	// outer tuple.
	if perTuple < 100 {
		t.Errorf("accesses per tuple = %.1f, expected nested-loop blowup", perTuple)
	}
}

func TestOptimalClusterSizesMatchPaper(t *testing.T) {
	// §3.4.4: radix-join is tuned like a bucket chain, C/H ≈ 8 tuples
	// ("radix 8"), with ≈4 slightly better ("radix min"); phash bottoms
	// out around 200 tuples ("phash min"). Verify the planner's cluster
	// sizes land on those design points.
	m := memsim.Origin2000()
	const c = 1 << 22
	for _, tc := range []struct {
		s      Strategy
		loSize float64
		hiSize float64
	}{
		{Radix8, 4, 8},
		{RadixMin, 2, 4},
		{PhashMin, 100, 200},
		{Phash256, 128, 256},
	} {
		p := NewPlan(tc.s, c, m)
		size := float64(c) / float64(uint64(1)<<p.Bits)
		if size < tc.loSize || size > tc.hiSize {
			t.Errorf("%v: cluster size %.1f tuples, want in [%v, %v]", tc.s, size, tc.loSize, tc.hiSize)
		}
	}
}

func TestMultiPassReducesSimTimeBeyondTLB(t *testing.T) {
	// Figure 9's headline: beyond 6 bits, two passes beat one in
	// *time*, not just TLB misses.
	m := memsim.Origin2000()
	const c = 1 << 19
	run := func(bits, passes int) float64 {
		sim := memsim.MustNew(m)
		in := workload.UniquePairs(c, 8)
		in.Bind(sim)
		if _, err := RadixClusterOpts(sim, in, bits, passes, nil, Serial()); err != nil {
			t.Fatal(err)
		}
		return sim.Stats().ElapsedNanos()
	}
	if one, two := run(12, 1), run(12, 2); two >= one {
		t.Errorf("B=12: two passes (%.1fms) not faster than one (%.1fms)", two/1e6, one/1e6)
	}
	if one, two := run(4, 1), run(4, 2); one >= two {
		t.Errorf("B=4: one pass (%.1fms) not faster than two (%.1fms)", one/1e6, two/1e6)
	}
}

package core

import (
	"fmt"
	"testing"
	"testing/quick"

	"monetlite/internal/bat"
	"monetlite/internal/hashtab"
	"monetlite/internal/memsim"
	"monetlite/internal/workload"
)

func TestEvenBitSplit(t *testing.T) {
	cases := []struct {
		bits, passes int
		want         []int
	}{
		{6, 1, []int{6}},
		{7, 2, []int{4, 3}},
		{12, 2, []int{6, 6}},
		{13, 3, []int{5, 4, 4}},
		{20, 4, []int{5, 5, 5, 5}},
		{3, 3, []int{1, 1, 1}},
	}
	for _, tc := range cases {
		got := EvenBitSplit(tc.bits, tc.passes)
		if len(got) != len(tc.want) {
			t.Fatalf("split(%d,%d) = %v", tc.bits, tc.passes, got)
		}
		sum := 0
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("split(%d,%d) = %v, want %v", tc.bits, tc.passes, got, tc.want)
				break
			}
			sum += got[i]
		}
		if sum != tc.bits {
			t.Errorf("split(%d,%d) sums to %d", tc.bits, tc.passes, sum)
		}
	}
}

func TestOptimalPasses(t *testing.T) {
	m := memsim.Origin2000() // 64 TLB entries → 6 bits/pass
	cases := map[int]int{0: 1, 1: 1, 6: 1, 7: 2, 12: 2, 13: 3, 18: 3, 19: 4, 20: 4, 24: 4}
	for bits, want := range cases {
		if got := OptimalPasses(bits, m); got != want {
			t.Errorf("OptimalPasses(%d) = %d, want %d (§3.4.2)", bits, got, want)
		}
	}
}

func TestRadixClusterInvariant(t *testing.T) {
	in := workload.UniquePairs(10000, 1)
	for _, tc := range []struct{ bits, passes int }{
		{1, 1}, {4, 1}, {8, 2}, {10, 2}, {12, 3}, {13, 4},
	} {
		cl, err := RadixClusterOpts(nil, in, tc.bits, tc.passes, nil, Serial())
		if err != nil {
			t.Fatalf("B=%d P=%d: %v", tc.bits, tc.passes, err)
		}
		if err := cl.Validate(); err != nil {
			t.Errorf("B=%d P=%d: %v", tc.bits, tc.passes, err)
		}
		if cl.Pairs.Len() != in.Len() {
			t.Errorf("B=%d P=%d: lost tuples", tc.bits, tc.passes)
		}
	}
}

func TestRadixClusterPreservesMultiset(t *testing.T) {
	in := workload.UniquePairs(5000, 2)
	orig := make(map[bat.Pair]bool, in.Len())
	for _, b := range in.BUNs {
		orig[b] = true
	}
	cl, err := RadixClusterOpts(nil, in, 9, 2, nil, Serial())
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range cl.Pairs.BUNs {
		if !orig[b] {
			t.Fatal("cluster invented/corrupted a BUN")
		}
	}
	// Input must be untouched.
	for _, b := range in.BUNs {
		if !orig[b] {
			t.Fatal("input mutated")
		}
	}
}

func TestRadixClusterZeroBits(t *testing.T) {
	in := workload.UniquePairs(100, 3)
	cl, err := RadixClusterOpts(nil, in, 0, 1, nil, Serial())
	if err != nil {
		t.Fatal(err)
	}
	if cl.Clusters() != 1 || cl.ClusterLen(0) != 100 {
		t.Errorf("B=0: %d clusters, first len %d", cl.Clusters(), cl.ClusterLen(0))
	}
	if cl.Pairs != in {
		t.Error("B=0 should not copy")
	}
}

func TestRadixClusterParamValidation(t *testing.T) {
	in := workload.UniquePairs(10, 4)
	if _, err := RadixClusterOpts(nil, in, -1, 1, nil, Serial()); err == nil {
		t.Error("negative bits accepted")
	}
	if _, err := RadixClusterOpts(nil, in, MaxBits+1, 1, nil, Serial()); err == nil {
		t.Error("oversized bits accepted")
	}
	if _, err := RadixClusterOpts(nil, in, 4, 0, nil, Serial()); err == nil {
		t.Error("zero passes accepted")
	}
	if _, err := RadixClusterOpts(nil, in, 4, 5, nil, Serial()); err == nil {
		t.Error("more passes than bits accepted")
	}
}

func TestRadixClusterEmptyInput(t *testing.T) {
	in := bat.NewPairs(0)
	cl, err := RadixClusterOpts(nil, in, 4, 2, nil, Serial())
	if err != nil {
		t.Fatal(err)
	}
	if cl.Clusters() != 16 {
		t.Errorf("clusters = %d", cl.Clusters())
	}
	if err := cl.Validate(); err != nil {
		t.Error(err)
	}
}

func TestRadixClusterMultiPassEqualsSinglePass(t *testing.T) {
	in := workload.UniquePairs(4096, 5)
	one, err := RadixClusterOpts(nil, in, 8, 1, nil, Serial())
	if err != nil {
		t.Fatal(err)
	}
	two, err := RadixClusterOpts(nil, in, 8, 2, nil, Serial())
	if err != nil {
		t.Fatal(err)
	}
	// Same cluster boundaries regardless of pass count.
	for k := 0; k <= one.Clusters(); k++ {
		if one.Offsets[k] != two.Offsets[k] {
			t.Fatalf("offset %d differs: %d vs %d", k, one.Offsets[k], two.Offsets[k])
		}
	}
	// Same multiset within each cluster.
	for k := 0; k < one.Clusters(); k++ {
		a, b := one.Pairs.Slice(one.Offsets[k], one.Offsets[k+1]), two.Pairs.Slice(two.Offsets[k], two.Offsets[k+1])
		seen := make(map[bat.Pair]int)
		for _, x := range a.BUNs {
			seen[x]++
		}
		for _, x := range b.BUNs {
			seen[x]--
			if seen[x] < 0 {
				t.Fatalf("cluster %d contents differ", k)
			}
		}
	}
}

func TestRadixClusterWithMultHash(t *testing.T) {
	in := workload.DensePairs(2048, 6)
	cl, err := RadixClusterOpts(nil, in, 6, 2, hashtab.Mult, Serial())
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Validate(); err != nil {
		t.Error(err)
	}
}

func TestRadixClusterInstrumentedAccessCounts(t *testing.T) {
	sim := memsim.MustNew(memsim.Origin2000())
	in := workload.UniquePairs(8192, 7)
	in.Bind(sim)
	cl, err := RadixClusterOpts(sim, in, 6, 1, nil, Serial())
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Validate(); err != nil {
		t.Fatal(err)
	}
	st := sim.Stats()
	// One pass: histogram read + scatter read + scatter write per tuple.
	if want := uint64(3 * 8192); st.Accesses != want {
		t.Errorf("accesses = %d, want %d", st.Accesses, want)
	}
	if st.CPUNanos != 8192*sim.Machine().Cost.Wc {
		t.Errorf("CPU = %v", st.CPUNanos)
	}
	// Two passes double the traffic.
	sim2 := memsim.MustNew(memsim.Origin2000())
	in2 := workload.UniquePairs(8192, 7)
	in2.Bind(sim2)
	if _, err := RadixClusterOpts(sim2, in2, 6, 2, nil, Serial()); err != nil {
		t.Fatal(err)
	}
	if want := uint64(2 * 3 * 8192); sim2.Stats().Accesses != want {
		t.Errorf("2-pass accesses = %d, want %d", sim2.Stats().Accesses, want)
	}
}

func TestRadixClusterTLBKnee(t *testing.T) {
	// §3.4.2: one-pass clustering into more clusters than TLB entries
	// explodes TLB misses; the same bits in two passes avoid it. The
	// relation must be big enough that its clusters span more pages
	// than the TLB holds: 2^19 tuples = 4 MB = 256 pages on the
	// Origin2000 (16 KB pages, 64 TLB entries, 1 MB reach).
	m := memsim.Origin2000()
	const c = 1 << 19
	run := func(bits, passes int) memsim.Stats {
		sim := memsim.MustNew(m)
		in := workload.UniquePairs(c, 11)
		in.Bind(sim)
		if _, err := RadixClusterOpts(sim, in, bits, passes, nil, Serial()); err != nil {
			t.Fatal(err)
		}
		return sim.Stats()
	}
	onePassSmall := run(5, 1) // 32 write cursors < 64 TLB entries
	onePassBig := run(10, 1)  // 1024 write cursors >> 64 TLB entries
	twoPassBig := run(10, 2)  // 2 passes × 32 cursors each
	if onePassBig.TLBMisses < 10*onePassSmall.TLBMisses {
		t.Errorf("TLB explosion missing: B=5 %d vs B=10 %d misses",
			onePassSmall.TLBMisses, onePassBig.TLBMisses)
	}
	if twoPassBig.TLBMisses*4 > onePassBig.TLBMisses {
		t.Errorf("two-pass did not fix TLB trashing: 1-pass %d vs 2-pass %d",
			onePassBig.TLBMisses, twoPassBig.TLBMisses)
	}
}

func TestRadixClusterBudget(t *testing.T) {
	sim := memsim.MustNew(memsim.Origin2000())
	sim.Budget = 100
	in := workload.UniquePairs(10000, 12)
	in.Bind(sim)
	if _, err := RadixClusterOpts(sim, in, 8, 2, nil, Serial()); err == nil {
		t.Error("budget exhaustion not reported")
	}
}

func TestRadixClusterSplitSchedules(t *testing.T) {
	in := workload.UniquePairs(4096, 14)
	even, err := RadixClusterOpts(nil, in, 9, 3, nil, Serial())
	if err != nil {
		t.Fatal(err)
	}
	for _, split := range [][]int{{3, 3, 3}, {5, 4}, {7, 2}, {1, 8}, {9}} {
		cl, err := RadixClusterSplitOpts(nil, in, split, nil, Serial())
		if err != nil {
			t.Fatalf("split %v: %v", split, err)
		}
		if err := cl.Validate(); err != nil {
			t.Fatalf("split %v: %v", split, err)
		}
		// Any schedule summing to the same B yields the same cluster
		// boundaries.
		for k := range even.Offsets {
			if cl.Offsets[k] != even.Offsets[k] {
				t.Fatalf("split %v: offsets differ at %d", split, k)
			}
		}
	}
	// Invalid schedules.
	if _, err := RadixClusterSplitOpts(nil, in, []int{0, 4}, nil, Serial()); err == nil {
		t.Error("zero-bit pass accepted")
	}
	if _, err := RadixClusterSplitOpts(nil, in, []int{20, 20}, nil, Serial()); err == nil {
		t.Error("over-MaxBits schedule accepted")
	}
}

func TestUnevenSplitCostsMore(t *testing.T) {
	// §3.4.2: performance depends strongly on an even distribution of
	// bits — a 10+2 schedule trashes the TLB in its first pass where
	// 6+6 stays within the 64 entries.
	const c = 1 << 19
	run := func(split []int) float64 {
		sim := memsim.MustNew(memsim.Origin2000())
		in := workload.UniquePairs(c, 15)
		in.Bind(sim)
		if _, err := RadixClusterSplitOpts(sim, in, split, nil, Serial()); err != nil {
			t.Fatal(err)
		}
		return sim.Stats().ElapsedNanos()
	}
	even, uneven := run([]int{6, 6}), run([]int{10, 2})
	if even >= uneven {
		t.Errorf("even split (%.1fms) not cheaper than 10+2 (%.1fms)", even/1e6, uneven/1e6)
	}
}

// Property: for random inputs, bits and passes, clustering preserves
// the BUN multiset and satisfies the radix invariant.
func TestRadixClusterProperty(t *testing.T) {
	f := func(seed uint64, nRaw, bitsRaw, passRaw uint8) bool {
		n := int(nRaw)%1500 + 1
		bits := int(bitsRaw)%12 + 1
		passes := int(passRaw)%bits%4 + 1
		in := workload.UniquePairs(n, seed)
		cl, err := RadixClusterOpts(nil, in, bits, passes, nil, Serial())
		if err != nil {
			return false
		}
		if cl.Validate() != nil {
			return false
		}
		seen := make(map[bat.Pair]int, n)
		for _, b := range in.BUNs {
			seen[b]++
		}
		for _, b := range cl.Pairs.BUNs {
			seen[b]--
			if seen[b] < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestRadixAllocsPinned pins the allocation count of the serial
// radix-cluster and partitioned hash-join paths: the layout the
// multi-pass driver moves must not cost allocations per call (the
// engine's radix sink runs RadixClusterKV once per morsel). The
// ceilings are the counts measured before the pass loop was shared.
func TestRadixAllocsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("2^19-tuple allocation counts; skipped in -short")
	}
	keys, vals := genKV(1<<18, func(rng *workload.RNG, _ int) int64 { return int64(rng.Intn(1 << 30)) }, 41)
	l, r := workload.JoinInputs(1<<19, 42)
	for _, tc := range []struct {
		name string
		max  float64
		run  func() error
	}{
		{"RadixClusterKV", 10, func() error {
			_, _, _, err := RadixClusterKV(keys, vals, 12, 2, Serial())
			return err
		}},
		{"RadixClusterOpts", 13, func() error {
			_, err := RadixClusterOpts(nil, l, 13, 2, nil, Serial())
			return err
		}},
		{"PartitionedHashJoinOpts", 34, func() error {
			_, err := PartitionedHashJoinOpts(nil, l, r, 13, 2, nil, Serial())
			return err
		}},
	} {
		got := testing.AllocsPerRun(2, func() {
			if err := tc.run(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocs per call", tc.name, got)
		if got > tc.max {
			t.Errorf("%s: %.0f allocs per call, want at most %.0f", tc.name, got, tc.max)
		}
	}
}

// BenchmarkRadixCluster times the radix-cluster of J2's two inputs on
// B=12 bits, in one pass and in two, serial and on two workers: the
// 2^20-tuple outer (keys uniform over 2^19) and the 2^19-tuple dense
// inner. -short shrinks them to 2^16 and 2^15 tuples on B=8.
func BenchmarkRadixCluster(b *testing.B) {
	nOuter, nInner, bits := 1<<20, 1<<19, 12
	if testing.Short() {
		nOuter, nInner, bits = 1<<16, 1<<15, 8
	}
	l, _ := joinInput(1, nOuter, nInner, 0)
	inputs := []struct {
		name string
		in   *bat.Pairs
	}{{"outer", l}, {"inner", workload.DensePairs(nInner, 2)}}
	for _, in := range inputs {
		for _, passes := range []int{1, 2} {
			for _, workers := range []int{1, 2} {
				b.Run(fmt.Sprintf("%s=%d/P=%d/workers=%d", in.name, in.in.Len(), passes, workers), func(b *testing.B) {
					b.ReportAllocs()
					for b.Loop() {
						if _, err := RadixClusterOpts(nil, in.in, bits, passes, nil, Options{Parallelism: workers}); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(in.in.Len()), "ns/row")
				})
			}
		}
	}
}

package core

import (
	"sort"
	"testing"
	"testing/quick"

	"monetlite/internal/bat"
	"monetlite/internal/memsim"
	"monetlite/internal/workload"
)

// refJoin computes the exact equi-join result with a map, as the
// oracle all algorithms are checked against.
func refJoin(l, r *bat.Pairs) [][2]bat.Oid {
	byVal := make(map[uint32][]bat.Oid, r.Len())
	for _, b := range r.BUNs {
		byVal[b.Tail] = append(byVal[b.Tail], b.Head)
	}
	var out [][2]bat.Oid
	for _, b := range l.BUNs {
		for _, rh := range byVal[b.Tail] {
			out = append(out, [2]bat.Oid{b.Head, rh})
		}
	}
	sortPairs2(out)
	return out
}

func sortPairs2(xs [][2]bat.Oid) {
	sort.Slice(xs, func(i, j int) bool {
		if xs[i][0] != xs[j][0] {
			return xs[i][0] < xs[j][0]
		}
		return xs[i][1] < xs[j][1]
	})
}

func normalize(res *JoinIndex) [][2]bat.Oid {
	out := make([][2]bat.Oid, res.Len())
	for i, b := range res.BUNs {
		out[i] = [2]bat.Oid{b.Head, bat.Oid(b.Tail)}
	}
	sortPairs2(out)
	return out
}

func equalJoin(a, b [][2]bat.Oid) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestAllJoinsAgreeWithReference(t *testing.T) {
	l, r := workload.JoinInputs(3000, 42)
	want := refJoin(l, r)
	algos := []struct {
		name string
		run  func() (*JoinIndex, error)
	}{
		{"simple hash", func() (*JoinIndex, error) { return SimpleHashJoin(nil, l, r, nil) }},
		{"sort-merge", func() (*JoinIndex, error) { return SortMergeJoin(nil, l, r) }},
		{"nested loop", func() (*JoinIndex, error) { return NestedLoopJoin(nil, l, r) }},
		{"phash B=4 P=1", func() (*JoinIndex, error) { return PartitionedHashJoin(nil, l, r, 4, 1, nil) }},
		{"phash B=8 P=2", func() (*JoinIndex, error) { return PartitionedHashJoin(nil, l, r, 8, 2, nil) }},
		{"radix B=9 P=2", func() (*JoinIndex, error) { return RadixJoin(nil, l, r, 9, 2, nil) }},
		{"radix B=12 P=3", func() (*JoinIndex, error) { return RadixJoin(nil, l, r, 12, 3, nil) }},
	}
	for _, a := range algos {
		res, err := a.run()
		if err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		if got := normalize(res); !equalJoin(got, want) {
			t.Errorf("%s: result differs from reference (%d vs %d pairs)", a.name, len(got), len(want))
		}
	}
}

func TestJoinWithDuplicatesAndMisses(t *testing.T) {
	// Duplicate keys on both sides plus keys that never match.
	l := bat.FromPairs([]bat.Pair{
		{Head: 0, Tail: 5}, {Head: 1, Tail: 5}, {Head: 2, Tail: 7}, {Head: 3, Tail: 99},
	})
	r := bat.FromPairs([]bat.Pair{
		{Head: 10, Tail: 5}, {Head: 11, Tail: 5}, {Head: 12, Tail: 7}, {Head: 13, Tail: 42},
	})
	want := refJoin(l, r) // 2×2 on key 5 + 1 on key 7 = 5 pairs
	if len(want) != 5 {
		t.Fatalf("oracle computed %d pairs", len(want))
	}
	runs := map[string]func() (*JoinIndex, error){
		"simple hash": func() (*JoinIndex, error) { return SimpleHashJoin(nil, l, r, nil) },
		"sort-merge":  func() (*JoinIndex, error) { return SortMergeJoin(nil, l, r) },
		"phash":       func() (*JoinIndex, error) { return PartitionedHashJoin(nil, l, r, 2, 1, nil) },
		"radix":       func() (*JoinIndex, error) { return RadixJoin(nil, l, r, 2, 1, nil) },
	}
	for name, run := range runs {
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := normalize(res); !equalJoin(got, want) {
			t.Errorf("%s: wrong result %v, want %v", name, got, want)
		}
	}
}

func TestJoinEmptyInputs(t *testing.T) {
	empty := bat.NewPairs(0)
	some := bat.FromPairs([]bat.Pair{{Head: 0, Tail: 1}})
	for name, run := range map[string]func(l, r *bat.Pairs) (*JoinIndex, error){
		"simple hash": func(l, r *bat.Pairs) (*JoinIndex, error) { return SimpleHashJoin(nil, l, r, nil) },
		"sort-merge":  func(l, r *bat.Pairs) (*JoinIndex, error) { return SortMergeJoin(nil, l, r) },
		"phash":       func(l, r *bat.Pairs) (*JoinIndex, error) { return PartitionedHashJoin(nil, l, r, 2, 1, nil) },
		"radix":       func(l, r *bat.Pairs) (*JoinIndex, error) { return RadixJoin(nil, l, r, 2, 1, nil) },
	} {
		for _, pair := range [][2]*bat.Pairs{{empty, some}, {some, empty}, {empty, empty}} {
			res, err := run(pair[0], pair[1])
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if res.Len() != 0 {
				t.Errorf("%s: join with empty side returned %d pairs", name, res.Len())
			}
		}
	}
}

func TestJoinClusteredBitMismatch(t *testing.T) {
	l, r := workload.JoinInputs(100, 1)
	lc, _ := RadixCluster(nil, l, 3, 1, nil)
	rc, _ := RadixCluster(nil, r, 4, 1, nil)
	if _, err := PartitionedHashJoinClustered(nil, lc, rc, nil); err == nil {
		t.Error("bit mismatch accepted by phash")
	}
	if _, err := RadixJoinClustered(nil, lc, rc); err == nil {
		t.Error("bit mismatch accepted by radix-join")
	}
}

func TestJoinIndexOrientation(t *testing.T) {
	// Result BUNs must be [left OID, right OID].
	l := bat.FromPairs([]bat.Pair{{Head: 7, Tail: 1}})
	r := bat.FromPairs([]bat.Pair{{Head: 9, Tail: 1}})
	res, err := PartitionedHashJoin(nil, l, r, 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.BUNs[0].Head != 7 || res.BUNs[0].Tail != 9 {
		t.Errorf("join index = %+v, want [7,9]", res.BUNs)
	}
}

func TestInstrumentedJoinsProduceStats(t *testing.T) {
	m := memsim.Origin2000()
	l, r := workload.JoinInputs(20000, 5)
	type mk func(sim *memsim.Sim, l, r *bat.Pairs) (*JoinIndex, error)
	algos := map[string]mk{
		"simple": func(s *memsim.Sim, l, r *bat.Pairs) (*JoinIndex, error) { return SimpleHashJoin(s, l, r, nil) },
		"smj":    func(s *memsim.Sim, l, r *bat.Pairs) (*JoinIndex, error) { return SortMergeJoin(s, l, r) },
		"phash": func(s *memsim.Sim, l, r *bat.Pairs) (*JoinIndex, error) {
			return PartitionedHashJoin(s, l, r, 8, 2, nil)
		},
		"radix": func(s *memsim.Sim, l, r *bat.Pairs) (*JoinIndex, error) { return RadixJoin(s, l, r, 12, 2, nil) },
	}
	for name, run := range algos {
		sim := memsim.MustNew(m)
		ll, rr := l.Clone(), r.Clone()
		res, err := run(sim, ll, rr)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Len() != 20000 {
			t.Errorf("%s: %d results, want 20000", name, res.Len())
		}
		st := sim.Stats()
		if st.Accesses == 0 || st.L1Misses == 0 || st.ElapsedNanos() <= 0 {
			t.Errorf("%s: implausible stats %v", name, st)
		}
	}
}

func TestPartitionedBeatsSimpleHashWhenOutOfCache(t *testing.T) {
	// The paper's headline: once the inner relation exceeds the caches,
	// partitioned hash-join (clustered, cache-sized) beats the simple
	// hash join on simulated time.
	m := memsim.Origin2000()
	c := 1 << 20 // 8 MB per relation: 2× L2
	if testing.Short() {
		// 4 MB relations: the inner cluster plus its 12-byte/tuple hash
		// table still exceeds L2, so the ordering holds at ~4x less work.
		c = 1 << 19
	}
	l, r := workload.JoinInputs(c, 77)

	simSimple := memsim.MustNew(m)
	if _, err := SimpleHashJoin(simSimple, l.Clone(), r.Clone(), nil); err != nil {
		t.Fatal(err)
	}
	simPhash := memsim.MustNew(m)
	plan := NewPlan(PhashL1, c, m)
	if _, err := PartitionedHashJoin(simPhash, l.Clone(), r.Clone(), plan.Bits, plan.Passes, nil); err != nil {
		t.Fatal(err)
	}
	simple, phash := simSimple.Stats(), simPhash.Stats()
	if phash.ElapsedNanos() >= simple.ElapsedNanos() {
		t.Errorf("phash L1 (%.1fms) not faster than simple hash (%.1fms)",
			phash.ElapsedMillis(), simple.ElapsedMillis())
	}
	if phash.L2Misses >= simple.L2Misses {
		t.Errorf("phash L2 misses %d not below simple hash %d", phash.L2Misses, simple.L2Misses)
	}
}

// Property: partitioned hash-join and radix-join agree with the
// reference join for random inputs with duplicates.
func TestJoinCorrectnessProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8, bitsRaw uint8) bool {
		n := int(nRaw)%300 + 1
		bits := int(bitsRaw)%8 + 1
		rng := workload.NewRNG(seed)
		l, r := bat.NewPairs(n), bat.NewPairs(n)
		for i := 0; i < n; i++ {
			// Small domain forces duplicates and non-matches.
			l.BUNs[i] = bat.Pair{Head: bat.Oid(i), Tail: uint32(rng.Intn(64))}
			r.BUNs[i] = bat.Pair{Head: bat.Oid(i), Tail: uint32(rng.Intn(64))}
		}
		want := refJoin(l, r)
		ph, err := PartitionedHashJoin(nil, l, r, bits, 1, nil)
		if err != nil || !equalJoin(normalize(ph), want) {
			return false
		}
		rj, err := RadixJoin(nil, l, r, bits, 1, nil)
		if err != nil || !equalJoin(normalize(rj), want) {
			return false
		}
		sm, err := SortMergeJoin(nil, l, r)
		return err == nil && equalJoin(normalize(sm), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestClusterJoinAllocsFlatInClusters: the serial cluster-pair join
// re-points one view per side instead of allocating one per cluster,
// so PartitionedHashJoin's and RadixJoin's allocations do not grow
// with the cluster count.
func TestClusterJoinAllocsFlatInClusters(t *testing.T) {
	l, r := workload.JoinInputs(1<<12, 5)
	joins := []struct {
		name string
		join func(bits int) (*JoinIndex, error)
	}{
		{"phash", func(bits int) (*JoinIndex, error) { return PartitionedHashJoin(nil, l, r, bits, 1, nil) }},
		{"radix", func(bits int) (*JoinIndex, error) { return RadixJoin(nil, l, r, bits, 1, nil) }},
	}
	for _, j := range joins {
		allocs := func(bits int) float64 {
			return testing.AllocsPerRun(5, func() {
				if res, err := j.join(bits); err != nil || res.Len() != l.Len() {
					t.Fatalf("%s on %d bits: %v, %d results", j.name, bits, err, res.Len())
				}
			})
		}
		few, many := allocs(2), allocs(10)
		t.Logf("%s: %.0f allocs at 4 clusters, %.0f at 1024", j.name, few, many)
		if many > few {
			t.Errorf("%s: %.0f allocs at 1024 clusters > %.0f at 4: allocations grow with the cluster count", j.name, many, few)
		}
	}
}

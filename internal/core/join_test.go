package core

import (
	"errors"
	"fmt"
	"slices"
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
		{"phash B=4 P=1", func() (*JoinIndex, error) { return PartitionedHashJoinOpts(nil, l, r, 4, 1, nil, Serial()) }},
		{"phash B=8 P=2", func() (*JoinIndex, error) { return PartitionedHashJoinOpts(nil, l, r, 8, 2, nil, Serial()) }},
		{"radix B=9 P=2", func() (*JoinIndex, error) { return RadixJoinOpts(nil, l, r, 9, 2, nil, Serial()) }},
		{"radix B=12 P=3", func() (*JoinIndex, error) { return RadixJoinOpts(nil, l, r, 12, 3, nil, Serial()) }},
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
	small := [2]*bat.Pairs{bat.FromPairs([]bat.Pair{
		{Head: 0, Tail: 5}, {Head: 1, Tail: 5}, {Head: 2, Tail: 7}, {Head: 3, Tail: 99},
	}), bat.FromPairs([]bat.Pair{
		{Head: 10, Tail: 5}, {Head: 11, Tail: 5}, {Head: 12, Tail: 7}, {Head: 13, Tail: 42},
	})}
	if want := refJoin(small[0], small[1]); len(want) != 5 { // 2×2 on key 5 + 1 on key 7
		t.Fatalf("oracle computed %d pairs", len(want))
	}
	// An inner key with more matches than one native probe vector
	// holds, so the probe resumes mid-chain, between outer tuples that
	// miss.
	hotL, hotR := bat.NewPairs(5), bat.NewPairs(joinVec+joinVec/2+3)
	for i := range hotL.BUNs {
		hotL.BUNs[i] = bat.Pair{Head: bat.Oid(i), Tail: uint32(4 * (i % 2))} // keys 0 and 4: 0 is hot, 4 misses
	}
	for i := range hotR.BUNs {
		hotR.BUNs[i] = bat.Pair{Head: bat.Oid(100 + i), Tail: uint32(8 * (i % 3 / 2))} // keys 0 and 8
	}
	// An outer cluster longer than one probe vector.
	longL, longR := bat.NewPairs(5*joinVec+3), bat.NewPairs(40)
	for i := range longL.BUNs {
		longL.BUNs[i] = bat.Pair{Head: bat.Oid(i), Tail: uint32(i % 32)}
	}
	for i := range longR.BUNs {
		longR.BUNs[i] = bat.Pair{Head: bat.Oid(i), Tail: uint32(i % 20 * 2)} // odd keys miss
	}
	runs := map[string]func(l, r *bat.Pairs) (*JoinIndex, error){
		"simple hash": func(l, r *bat.Pairs) (*JoinIndex, error) { return SimpleHashJoin(nil, l, r, nil) },
		"sort-merge":  func(l, r *bat.Pairs) (*JoinIndex, error) { return SortMergeJoin(nil, l, r) },
		"nested loop": func(l, r *bat.Pairs) (*JoinIndex, error) { return NestedLoopJoin(nil, l, r) },
		"phash": func(l, r *bat.Pairs) (*JoinIndex, error) {
			return PartitionedHashJoinOpts(nil, l, r, 2, 1, nil, Serial())
		},
		"phash B=0": func(l, r *bat.Pairs) (*JoinIndex, error) {
			return PartitionedHashJoinOpts(nil, l, r, 0, 1, nil, Serial())
		},
		"radix":     func(l, r *bat.Pairs) (*JoinIndex, error) { return RadixJoinOpts(nil, l, r, 2, 1, nil, Serial()) },
		"radix B=0": func(l, r *bat.Pairs) (*JoinIndex, error) { return RadixJoinOpts(nil, l, r, 0, 1, nil, Serial()) },
	}
	for input, in := range map[string][2]*bat.Pairs{"small": small, "hot inner key": {hotL, hotR}, "long outer": {longL, longR}} {
		want := refJoin(in[0], in[1])
		for name, run := range runs {
			res, err := run(in[0], in[1])
			if err != nil {
				t.Fatalf("%s, %s: %v", input, name, err)
			}
			if got := normalize(res); !equalJoin(got, want) {
				t.Errorf("%s, %s: %d pairs, want %d", input, name, len(got), len(want))
			}
		}
	}
}

func TestJoinEmptyInputs(t *testing.T) {
	empty := bat.NewPairs(0)
	some := bat.FromPairs([]bat.Pair{{Head: 0, Tail: 1}})
	for name, run := range map[string]func(l, r *bat.Pairs) (*JoinIndex, error){
		"simple hash": func(l, r *bat.Pairs) (*JoinIndex, error) { return SimpleHashJoin(nil, l, r, nil) },
		"sort-merge":  func(l, r *bat.Pairs) (*JoinIndex, error) { return SortMergeJoin(nil, l, r) },
		"phash": func(l, r *bat.Pairs) (*JoinIndex, error) {
			return PartitionedHashJoinOpts(nil, l, r, 2, 1, nil, Serial())
		},
		"radix": func(l, r *bat.Pairs) (*JoinIndex, error) { return RadixJoinOpts(nil, l, r, 2, 1, nil, Serial()) },
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
	lc, _ := RadixClusterOpts(nil, l, 3, 1, nil, Serial())
	rc, _ := RadixClusterOpts(nil, r, 4, 1, nil, Serial())
	if _, err := PartitionedHashJoinClusteredOpts(nil, lc, rc, nil, Serial()); err == nil {
		t.Error("bit mismatch accepted by phash")
	}
	if _, err := RadixJoinClusteredOpts(nil, lc, rc, Serial()); err == nil {
		t.Error("bit mismatch accepted by radix-join")
	}
}

func TestJoinIndexOrientation(t *testing.T) {
	// Result BUNs must be [left OID, right OID].
	l := bat.FromPairs([]bat.Pair{{Head: 7, Tail: 1}})
	r := bat.FromPairs([]bat.Pair{{Head: 9, Tail: 1}})
	res, err := PartitionedHashJoinOpts(nil, l, r, 1, 1, nil, Serial())
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
			return PartitionedHashJoinOpts(s, l, r, 8, 2, nil, Serial())
		},
		"radix": func(s *memsim.Sim, l, r *bat.Pairs) (*JoinIndex, error) {
			return RadixJoinOpts(s, l, r, 12, 2, nil, Serial())
		},
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
	if _, err := PartitionedHashJoinOpts(simPhash, l.Clone(), r.Clone(), plan.Bits, plan.Passes, nil, Serial()); err != nil {
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

// joinInput draws n outer and n inner tuples with keys uniform over
// [0, domain): a domain below n forces duplicates, and independent
// draws leave keys that never match. The first hot inner tuples all
// take key 0.
func joinInput(seed uint64, n, domain, hot int) (l, r *bat.Pairs) {
	rng := workload.NewRNG(seed)
	l, r = bat.NewPairs(n), bat.NewPairs(n)
	for i := 0; i < n; i++ {
		l.BUNs[i] = bat.Pair{Head: bat.Oid(i), Tail: uint32(rng.Intn(domain))}
		r.BUNs[i] = bat.Pair{Head: bat.Oid(i), Tail: uint32(rng.Intn(domain))}
	}
	for i := range min(hot, n) {
		r.BUNs[i].Tail = 0
	}
	return l, r
}

// checkJoinPhases runs every join on l ⋈ r: each must equal refJoin,
// and the partitioned joins (on bits, in passes) must return their
// serial result BUN for BUN on `workers` workers and every join under
// a fresh simulator. The nested loop runs only on inputs of at most
// 2^20 tuple pairs: it is quadratic.
func checkJoinPhases(l, r *bat.Pairs, bits, passes, workers int) error {
	want := refJoin(l, r)
	joins := map[string]func(*memsim.Sim, *bat.Pairs, *bat.Pairs, Options) (*JoinIndex, error){
		"simple hash": func(sim *memsim.Sim, l, r *bat.Pairs, _ Options) (*JoinIndex, error) {
			return SimpleHashJoin(sim, l, r, nil)
		},
		"phash": func(sim *memsim.Sim, l, r *bat.Pairs, opt Options) (*JoinIndex, error) {
			return PartitionedHashJoinOpts(sim, l, r, bits, passes, nil, opt)
		},
		"radix": func(sim *memsim.Sim, l, r *bat.Pairs, opt Options) (*JoinIndex, error) {
			return RadixJoinOpts(sim, l, r, bits, passes, nil, opt)
		},
	}
	if l.Len()*r.Len() <= 1<<20 {
		joins["nested loop"] = func(sim *memsim.Sim, l, r *bat.Pairs, _ Options) (*JoinIndex, error) {
			return NestedLoopJoin(sim, l, r)
		}
	}
	for name, join := range joins {
		serial, err := join(nil, l, r, Serial())
		if err != nil {
			return fmt.Errorf("%s: %v", name, err)
		}
		if !equalJoin(normalize(serial), want) {
			return fmt.Errorf("%s: %d pairs differ from the reference's %d", name, serial.Len(), len(want))
		}
		par, err := join(nil, l, r, Options{Parallelism: workers})
		if err != nil || !slices.Equal(par.BUNs, serial.BUNs) {
			return fmt.Errorf("%s on %d workers differs from serial (err %v)", name, workers, err)
		}
		sim, err := join(memsim.MustNew(memsim.Origin2000()), l.Clone(), r.Clone(), Serial())
		if err != nil || !slices.Equal(sim.BUNs, serial.BUNs) {
			return fmt.Errorf("%s under a simulator differs from native (err %v)", name, err)
		}
	}
	sm, err := SortMergeJoin(nil, l, r)
	if err != nil || !equalJoin(normalize(sm), want) {
		return fmt.Errorf("sort-merge differs from the reference (err %v)", err)
	}
	return nil
}

// Property: every join agrees with the reference join for random
// inputs with duplicates, and each returns the serial result BUN for
// BUN on four workers and under a fresh simulator (checkJoinPhases;
// FuzzJoinPhases explores further). Outside -short, odd seeds grow the
// input past joinGrain so the join phase runs as several parallel
// cluster-range tasks.
func TestJoinCorrectnessProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8, bitsRaw uint8) bool {
		n, domain := int(nRaw)%300+1, 64
		if seed&1 == 1 && !testing.Short() {
			n, domain = joinGrain+16*n, 1024
		}
		l, r := joinInput(seed, n, domain, 0)
		if err := checkJoinPhases(l, r, int(bitsRaw)%8+1, 1, 4); err != nil {
			t.Logf("seed %d, n %d, bits %d: %v", seed, n, int(bitsRaw)%8+1, err)
			return false
		}
		return true
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
		{"phash", func(bits int) (*JoinIndex, error) { return PartitionedHashJoinOpts(nil, l, r, bits, 1, nil, Serial()) }},
		{"radix", func(bits int) (*JoinIndex, error) { return RadixJoinOpts(nil, l, r, bits, 1, nil, Serial()) }},
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

// TestParallelJoinAllocsOnePerTask: a parallel join phase allocates
// one output buffer per cluster-range task and nothing else per task;
// the cluster views and probe vectors stay on the workers' stacks.
// Dense keys give every cluster the same size, so a worker allocates
// its hash table (three objects) at most once; which workers get a
// task varies, hence the slack of one table per worker.
func TestParallelJoinAllocsOnePerTask(t *testing.T) {
	opt := Options{Parallelism: 4}
	for _, j := range []struct {
		name string
		join func(lc, rc *Clustered) (*JoinIndex, error)
	}{
		{"phash", func(lc, rc *Clustered) (*JoinIndex, error) {
			return PartitionedHashJoinClusteredOpts(nil, lc, rc, nil, opt)
		}},
		{"radix", func(lc, rc *Clustered) (*JoinIndex, error) { return RadixJoinClusteredOpts(nil, lc, rc, opt) }},
	} {
		allocs := func(n int) (float64, int) {
			l, r := workload.DensePairs(n, 9), workload.DensePairs(n, 10)
			lc, _ := RadixClusterOpts(nil, l, 10, 2, nil, Serial())
			rc, _ := RadixClusterOpts(nil, r, 10, 2, nil, Serial())
			return testing.AllocsPerRun(5, func() {
				if res, err := j.join(lc, rc); err != nil || res.Len() != n {
					t.Fatalf("%s at %d tuples: %v", j.name, n, err)
				}
			}), len(clusterTasks(lc, opt.Workers()))
		}
		few, fewTasks := allocs(1 << 15)
		many, manyTasks := allocs(1 << 17)
		t.Logf("%s: %.0f allocs for %d tasks, %.0f for %d", j.name, few, fewTasks, many, manyTasks)
		if many-few > float64(manyTasks-fewTasks+3*opt.Workers()) {
			t.Errorf("%s: %.0f more allocs for %d more tasks", j.name, many-few, manyTasks-fewTasks)
		}
	}
}

// simJoins are the five joins the simulator runs, by name.
var simJoins = map[string]func(sim *memsim.Sim, l, r *bat.Pairs) (*JoinIndex, error){
	"simple hash": func(s *memsim.Sim, l, r *bat.Pairs) (*JoinIndex, error) { return SimpleHashJoin(s, l, r, nil) },
	"sort-merge":  func(s *memsim.Sim, l, r *bat.Pairs) (*JoinIndex, error) { return SortMergeJoin(s, l, r) },
	"nested loop": func(s *memsim.Sim, l, r *bat.Pairs) (*JoinIndex, error) { return NestedLoopJoin(s, l, r) },
	"phash B=8 P=2": func(s *memsim.Sim, l, r *bat.Pairs) (*JoinIndex, error) {
		return PartitionedHashJoinOpts(s, l, r, 8, 2, nil, Serial())
	},
	"radix B=12 P=2": func(s *memsim.Sim, l, r *bat.Pairs) (*JoinIndex, error) {
		return RadixJoinOpts(s, l, r, 12, 2, nil, Serial())
	},
}

// TestJoinSimStatsPinned pins the Origin2000 counters of every
// simulated join on workload.JoinInputs(2^lg, lg), unbudgeted and under
// an access budget of three quarters of the unbudgeted run, which pins
// where each join checks its budget too. Any change to a join's
// simulated access sequence, CPU charges or simulated memory layout
// shows here. The nested loop stops at 2^12 tuples: it is quadratic.
// Simple hash also runs at 2^17, where its table and result regions
// outgrow L2 and their simulated placement changes the L2 misses.
func TestJoinSimStatsPinned(t *testing.T) {
	pinned := []struct {
		algo   string
		lg     int
		budget uint64
		fails  bool
		want   memsim.Stats
	}{
		{"simple hash", 10, 0, false, memsim.Stats{Accesses: 17716, LinesRead: 17716, L1Misses: 2327, L2Misses: 232, TLBMisses: 5, CPUNanos: 699920, StallNanos: 93098}},
		{"simple hash", 10, 13287, false, memsim.Stats{Accesses: 17716, LinesRead: 17716, L1Misses: 2327, L2Misses: 232, TLBMisses: 5, CPUNanos: 699920, StallNanos: 93098}},
		{"sort-merge", 10, 0, false, memsim.Stats{Accesses: 31744, LinesRead: 31744, L1Misses: 4920, L2Misses: 448, TLBMisses: 7, CPUNanos: 704512, StallNanos: 208884}},
		{"sort-merge", 10, 23808, true, memsim.Stats{Accesses: 28672, LinesRead: 28672, L1Misses: 2048, L2Misses: 384, TLBMisses: 6, CPUNanos: 458752, StallNanos: 129866}},
		{"nested loop", 10, 0, false, memsim.Stats{Accesses: 1050624, LinesRead: 1050624, L1Misses: 2948, L2Misses: 192, TLBMisses: 3, CPUNanos: 2.5411584e+07, StallNanos: 101022}},
		{"nested loop", 10, 787968, true, memsim.Stats{Accesses: 787968, LinesRead: 787968, L1Misses: 2221, L2Misses: 160, TLBMisses: 3, CPUNanos: 1.9058688e+07, StallNanos: 78774}},
		{"phash B=8 P=2", 10, 0, false, memsim.Stats{Accesses: 26654, LinesRead: 26654, L1Misses: 3975, L2Misses: 450, TLBMisses: 9, CPUNanos: 1.81552e+06, StallNanos: 189842}},
		{"phash B=8 P=2", 10, 19990, true, memsim.Stats{Accesses: 20035, LinesRead: 20035, L1Misses: 2868, L2Misses: 421, TLBMisses: 9, CPUNanos: 1.07676e+06, StallNanos: 158924}},
		{"radix B=12 P=2", 10, 0, false, memsim.Stats{Accesses: 15612, LinesRead: 15612, L1Misses: 4316, L2Misses: 448, TLBMisses: 7, CPUNanos: 481184, StallNanos: 192554}},
		{"radix B=12 P=2", 10, 11709, true, memsim.Stats{Accesses: 12288, LinesRead: 12288, L1Misses: 1536, L2Misses: 384, TLBMisses: 6, CPUNanos: 204800, StallNanos: 115744}},
		{"simple hash", 12, 0, false, memsim.Stats{Accesses: 70888, LinesRead: 70888, L1Misses: 20905, L2Misses: 928, TLBMisses: 8, CPUNanos: 2.78888e+06, StallNanos: 643792}},
		{"simple hash", 12, 53166, true, memsim.Stats{Accesses: 70888, LinesRead: 70888, L1Misses: 20905, L2Misses: 928, TLBMisses: 8, CPUNanos: 2.78888e+06, StallNanos: 643792}},
		{"sort-merge", 12, 0, false, memsim.Stats{Accesses: 126976, LinesRead: 126976, L1Misses: 38288, L2Misses: 1792, TLBMisses: 14, CPUNanos: 2.818048e+06, StallNanos: 1.311424e+06}},
		{"sort-merge", 12, 95232, true, memsim.Stats{Accesses: 114688, LinesRead: 114688, L1Misses: 26155, L2Misses: 1536, TLBMisses: 12, CPUNanos: 1.835008e+06, StallNanos: 981114}},
		{"nested loop", 12, 0, false, memsim.Stats{Accesses: 16785408, LinesRead: 16785408, L1Misses: 18332, L2Misses: 768, TLBMisses: 6, CPUNanos: 4.03636224e+08, StallNanos: 557322}},
		{"nested loop", 12, 12589056, true, memsim.Stats{Accesses: 12589056, LinesRead: 12589056, L1Misses: 14070, L2Misses: 640, TLBMisses: 6, CPUNanos: 3.02727168e+08, StallNanos: 435834}},
		{"phash B=8 P=2", 12, 0, false, memsim.Stats{Accesses: 110628, LinesRead: 110628, L1Misses: 18068, L2Misses: 1794, TLBMisses: 16, CPUNanos: 4.52608e+06, StallNanos: 873798}},
		{"phash B=8 P=2", 12, 82971, true, memsim.Stats{Accesses: 82987, LinesRead: 82987, L1Misses: 13894, L2Misses: 1679, TLBMisses: 16, CPUNanos: 2.85748e+06, StallNanos: 756372}},
		{"radix B=12 P=2", 12, 0, false, memsim.Stats{Accesses: 65508, LinesRead: 65508, L1Misses: 20590, L2Misses: 1792, TLBMisses: 14, CPUNanos: 1.998176e+06, StallNanos: 901606}},
		{"radix B=12 P=2", 12, 49131, true, memsim.Stats{Accesses: 49152, LinesRead: 49152, L1Misses: 9186, L2Misses: 1536, TLBMisses: 12, CPUNanos: 819200, StallNanos: 589054}},
		{"simple hash", 14, 0, false, memsim.Stats{Accesses: 283000, LinesRead: 283000, L1Misses: 167538, L2Misses: 3712, TLBMisses: 29, CPUNanos: 1.114472e+07, StallNanos: 4.58511e+06}},
		{"simple hash", 14, 212250, true, memsim.Stats{Accesses: 229778, LinesRead: 229778, L1Misses: 127680, L2Misses: 3200, TLBMisses: 25, CPUNanos: 1.114472e+07, StallNanos: 3.550806e+06}},
		{"sort-merge", 14, 0, false, memsim.Stats{Accesses: 507904, LinesRead: 507904, L1Misses: 171936, L2Misses: 7168, TLBMisses: 56, CPUNanos: 1.1272192e+07, StallNanos: 5.73555e+06}},
		{"sort-merge", 14, 380928, true, memsim.Stats{Accesses: 458752, LinesRead: 458752, L1Misses: 122816, L2Misses: 6144, TLBMisses: 48, CPUNanos: 7.340032e+06, StallNanos: 4.401246e+06}},
		{"phash B=8 P=2", 14, 0, false, memsim.Stats{Accesses: 446656, LinesRead: 446656, L1Misses: 66227, L2Misses: 7172, TLBMisses: 58, CPUNanos: 1.533952e+07, StallNanos: 3.448228e+06}},
		{"phash B=8 P=2", 14, 334992, true, memsim.Stats{Accesses: 335033, LinesRead: 335033, L1Misses: 55052, L2Misses: 6715, TLBMisses: 55, CPUNanos: 9.94316e+06, StallNanos: 3.110794e+06}},
		{"radix B=12 P=2", 14, 0, false, memsim.Stats{Accesses: 311484, LinesRead: 311484, L1Misses: 85660, L2Misses: 7168, TLBMisses: 56, CPUNanos: 9.179552e+06, StallNanos: 3.837322e+06}},
		{"radix B=12 P=2", 14, 233613, true, memsim.Stats{Accesses: 233629, LinesRead: 233629, L1Misses: 55965, L2Misses: 6474, TLBMisses: 51, CPUNanos: 5.176952e+06, StallNanos: 3.019402e+06}},
		{"simple hash", 17, 0, false, memsim.Stats{Accesses: 2264392, LinesRead: 2264392, L1Misses: 1647211, L2Misses: 29696, TLBMisses: 533615, CPUNanos: 8.913256e+07, StallNanos: 1.6565247e+08}},
	}
	inputs := map[int][2]*bat.Pairs{}
	for _, p := range pinned {
		in, ok := inputs[p.lg]
		if !ok {
			l, r := workload.JoinInputs(1<<p.lg, uint64(p.lg))
			in = [2]*bat.Pairs{l, r}
			inputs[p.lg] = in
		}
		sim := memsim.MustNew(memsim.Origin2000())
		sim.Budget = p.budget
		_, err := simJoins[p.algo](sim, in[0].Clone(), in[1].Clone())
		if fails := errors.Is(err, memsim.ErrBudget); fails != p.fails || (err != nil && !fails) {
			t.Errorf("%s at 2^%d, budget %d: err = %v, want budget failure %v", p.algo, p.lg, p.budget, err, p.fails)
		}
		if got := sim.Stats(); got != p.want {
			t.Errorf("%s at 2^%d, budget %d:\n got %#v\nwant %#v", p.algo, p.lg, p.budget, got, p.want)
		}
	}
}

// BenchmarkJoinPhase times partitioned hash-join's join phase alone,
// serial and on two workers, on pre-clustered inputs shaped like
// join_agg's J2: 2^20 outer keys uniform over 2^19 and 2^19 unique
// inner keys, clustered on B=12 bits in 2 passes. -short shrinks it to
// 2^16 outer keys over 2^15 on B=8.
func BenchmarkJoinPhase(b *testing.B) {
	nOuter, nInner, bits := 1<<20, 1<<19, 12
	if testing.Short() {
		nOuter, nInner, bits = 1<<16, 1<<15, 8
	}
	l, _ := joinInput(1, nOuter, nInner, 0)
	r := workload.DensePairs(nInner, 2)
	lc, err := RadixClusterOpts(nil, l, bits, 2, nil, Serial())
	if err != nil {
		b.Fatal(err)
	}
	rc, err := RadixClusterOpts(nil, r, bits, 2, nil, Serial())
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if res, err := PartitionedHashJoinClusteredOpts(nil, lc, rc, nil, Options{Parallelism: workers}); err != nil || res.Len() != nOuter {
					b.Fatalf("join phase: %v", err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(nOuter), "ns/row")
		})
	}
}

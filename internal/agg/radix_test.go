package agg

import (
	"math"
	"reflect"
	"testing"

	"monetlite/internal/bat"
	"monetlite/internal/core"
	"monetlite/internal/memsim"
	"monetlite/internal/workload"
)

// genKeyed builds an n-row (key, value) feed with keys drawn by gen.
func genKeyed(n int, gen func(rng *workload.RNG, i int) int64, seed uint64) ([]int64, []float64) {
	rng := workload.NewRNG(seed)
	keys := make([]int64, n)
	vals := make([]float64, n)
	for i := 0; i < n; i++ {
		keys[i] = gen(rng, i)
		vals[i] = float64(rng.Intn(1<<20)) / 3 // non-terminating binary fractions
	}
	return keys, vals
}

// radixInputs is the adversarial key set the property suite sweeps:
// skew, duplicates, negative keys, near-unique keys, tiny and empty
// relations.
func radixInputs() map[string]struct {
	n   int
	gen func(rng *workload.RNG, i int) int64
} {
	return map[string]struct {
		n   int
		gen func(rng *workload.RNG, i int) int64
	}{
		"empty":    {0, func(*workload.RNG, int) int64 { return 0 }},
		"one":      {1, func(*workload.RNG, int) int64 { return -42 }},
		"tiny":     {7, func(rng *workload.RNG, i int) int64 { return int64(rng.Intn(3)) }},
		"skewed":   {6000, func(rng *workload.RNG, i int) int64 { return int64(rng.Intn(rng.Intn(64) + 1)) }},
		"dups":     {6000, func(rng *workload.RNG, i int) int64 { return int64(rng.Intn(97)) }},
		"negative": {6000, func(rng *workload.RNG, i int) int64 { return int64(rng.Intn(4001)) - 2000 }},
		"unique":   {6000, func(_ *workload.RNG, i int) int64 { return int64(i * 2654435761) }},
	}
}

// TestRadixGroupMatchesHashBitwise: RadixGroup must agree with
// HashGroup *bitwise* after SortByKey — the stable cluster passes keep
// each group's measures in input order, so even the float sums must
// come out identical, for every bits/passes split.
func TestRadixGroupMatchesHashBitwise(t *testing.T) {
	for name, in := range radixInputs() {
		keys, vals := genKeyed(in.n, in.gen, 5)
		kv := bat.NewI64(keys)
		h, err := HashGroup(nil, kv, bat.NewF64(vals))
		if err != nil {
			t.Fatal(err)
		}
		hs := sorted(h)
		for _, cfg := range []struct{ bits, passes int }{{0, 1}, {1, 1}, {4, 2}, {8, 2}, {11, 3}} {
			r, err := RadixGroup(nil, kv, bat.NewF64(vals), cfg.bits, cfg.passes)
			if err != nil {
				t.Fatalf("%s B=%d P=%d: %v", name, cfg.bits, cfg.passes, err)
			}
			if rs := sorted(r); !reflect.DeepEqual(hs, rs) {
				t.Errorf("%s B=%d P=%d: radix result differs from hash (groups %d vs %d)",
					name, cfg.bits, cfg.passes, rs.Groups(), hs.Groups())
			}
		}
	}
}

// TestRadixGroupAgreesWithSort: cross-check against the third §3.2
// strategy (tolerance on sums — SortGroup's pairs sort on uint32 key
// bits, a different association only in principle; counts and min/max
// must be exact). Keys stay in the uint32 domain SortGroup handles.
func TestRadixGroupAgreesWithSort(t *testing.T) {
	keys, vals := genKeyed(5000, func(rng *workload.RNG, i int) int64 { return int64(rng.Intn(2000)) }, 9)
	s, err := SortGroup(nil, bat.NewI64(keys), bat.NewF64(vals))
	if err != nil {
		t.Fatal(err)
	}
	r, err := RadixGroup(nil, bat.NewI64(keys), bat.NewF64(vals), 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	ss, rs := sorted(s), sorted(r)
	if ss.Groups() != rs.Groups() {
		t.Fatalf("group counts differ: sort %d, radix %d", ss.Groups(), rs.Groups())
	}
	for i := range ss.Key {
		if ss.Key[i] != rs.Key[i] || ss.Count[i] != rs.Count[i] ||
			ss.Min[i] != rs.Min[i] || ss.Max[i] != rs.Max[i] ||
			math.Abs(ss.Sum[i]-rs.Sum[i]) > 1e-9*math.Max(1, math.Abs(ss.Sum[i])) {
			t.Errorf("group %d differs: sort (%d,%d,%v) radix (%d,%d,%v)",
				i, ss.Key[i], ss.Count[i], ss.Sum[i], rs.Key[i], rs.Count[i], rs.Sum[i])
		}
	}
}

// TestRadixGroupInstrumentedMatchesNative: the simulated path must
// produce bit-identical aggregates to the native path, and actually
// mirror work into the simulator.
func TestRadixGroupInstrumentedMatchesNative(t *testing.T) {
	keys, vals := genKeyed(4000, func(rng *workload.RNG, i int) int64 { return int64(rng.Intn(1500)) }, 13)
	native, err := RadixGroup(nil, bat.NewI64(keys), bat.NewF64(vals), 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	sim := memsim.MustNew(memsim.Origin2000())
	instr, err := RadixGroup(sim, bat.NewI64(keys), bat.NewF64(vals), 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(native, instr) {
		t.Error("instrumented radix grouping differs from native")
	}
	st := sim.Stats()
	if st.Accesses == 0 || st.CPUNanos == 0 {
		t.Errorf("instrumented run mirrored no work: %+v", st)
	}
}

// TestClusterSimMatchesRadixClusterKV pins the instrumented cluster
// run (core.RadixClusterKVSim) to the native one: the same clustered
// pairs and partition offsets for every bits/passes split, on every
// adversarial input, with pair traffic mirrored into the simulator.
func TestClusterSimMatchesRadixClusterKV(t *testing.T) {
	for name, in := range radixInputs() {
		keys, vals := genKeyed(in.n, in.gen, 11)
		for _, cfg := range []struct{ bits, passes int }{{1, 1}, {4, 2}, {8, 2}, {11, 3}} {
			wk, wv, woffs, err := core.RadixClusterKV(keys, vals, cfg.bits, cfg.passes, core.Serial())
			if err != nil {
				t.Fatal(err)
			}
			sim := memsim.MustNew(memsim.Origin2000())
			gk, gv, goffs, _, err := core.RadixClusterKVSim(sim, keys, vals, sim.Alloc(PairBytes*in.n), cfg.bits, cfg.passes)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(wk, gk) || !reflect.DeepEqual(wv, gv) || !reflect.DeepEqual(woffs, goffs) {
				t.Errorf("%s B=%d P=%d: RadixClusterKVSim differs from RadixClusterKV", name, cfg.bits, cfg.passes)
			}
			if st := sim.Stats(); in.n > 0 && st.Accesses < uint64(2*cfg.passes*in.n) {
				t.Errorf("%s B=%d P=%d: %d simulated accesses for %d pairs", name, cfg.bits, cfg.passes, st.Accesses, in.n)
			}
		}
	}
}

// TestRadixGroupPartitioningBeatsMonolithicSim: the point of the
// strategy, measured on the simulator — at a group count far past L1,
// partitioned aggregation must cost less simulated time than one
// monolithic hash table (§3.2 pathology, §4 remedy).
func TestRadixGroupPartitioningBeatsMonolithicSim(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated 200K-row comparison; skipped in -short")
	}
	n := 200_000
	keys, vals := genKeyed(n, func(rng *workload.RNG, i int) int64 { return int64(rng.Intn(n)) }, 17)
	hashSim := memsim.MustNew(memsim.Origin2000())
	if _, err := HashGroup(hashSim, bat.NewI64(keys), bat.NewF64(vals)); err != nil {
		t.Fatal(err)
	}
	radixSim := memsim.MustNew(memsim.Origin2000())
	if _, err := RadixGroup(radixSim, bat.NewI64(keys), bat.NewF64(vals), 10, 2); err != nil {
		t.Fatal(err)
	}
	h, r := hashSim.Stats().ElapsedMillis(), radixSim.Stats().ElapsedMillis()
	t.Logf("simulated %d rows, ~%d groups: hash %.1f ms, radix %.1f ms", n, n, h, r)
	if r >= h {
		t.Errorf("radix grouping simulated at %.1f ms, monolithic hash at %.1f ms — partitioning must win", r, h)
	}
}

func TestRadixGroupErrors(t *testing.T) {
	keys, vals := genKeyed(16, func(rng *workload.RNG, i int) int64 { return int64(i) }, 1)
	kv, vv := bat.NewI64(keys), bat.NewF64(vals)
	if _, err := RadixGroup(nil, kv, vv, -1, 1); err == nil {
		t.Error("negative bits accepted")
	}
	if _, err := RadixGroup(nil, kv, vv, 3, 0); err == nil {
		t.Error("zero passes accepted")
	}
	if _, err := RadixGroup(nil, kv, vv, 2, 3); err == nil {
		t.Error("passes > bits accepted")
	}
	if _, err := RadixGroup(nil, nil, vv, 2, 1); err == nil {
		t.Error("nil keys accepted")
	}
	if _, err := RadixGroup(nil, kv, bat.NewF64(vals[:4]), 2, 1); err == nil {
		t.Error("length mismatch accepted")
	}
}

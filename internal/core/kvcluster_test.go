package core

import (
	"math"
	"reflect"
	"testing"

	"monetlite/internal/memsim"
	"monetlite/internal/workload"
)

// genKV builds a (key, value) feed with the given key generator.
func genKV(n int, key func(rng *workload.RNG, i int) int64, seed uint64) ([]int64, []float64) {
	rng := workload.NewRNG(seed)
	keys := make([]int64, n)
	vals := make([]float64, n)
	for i := 0; i < n; i++ {
		keys[i] = key(rng, i)
		vals[i] = float64(rng.Intn(1 << 20))
	}
	return keys, vals
}

// kvInputs is the shared adversarial input set: uniform, skewed,
// negative, sequential, single-key, tiny, empty.
func kvInputs(n int) map[string]func(rng *workload.RNG, i int) int64 {
	return map[string]func(rng *workload.RNG, i int) int64{
		"uniform":    func(rng *workload.RNG, i int) int64 { return int64(rng.Intn(n + 1)) },
		"skewed":     func(rng *workload.RNG, i int) int64 { return int64(rng.Intn(rng.Intn(16) + 1)) },
		"negative":   func(rng *workload.RNG, i int) int64 { return int64(rng.Intn(2*n+1)) - int64(n) },
		"sequential": func(_ *workload.RNG, i int) int64 { return int64(i) },
		"single":     func(*workload.RNG, int) int64 { return -7 },
		"wide":       func(rng *workload.RNG, i int) int64 { return (int64(rng.Intn(1<<30)) << 33) - int64(rng.Intn(1<<31)) },
	}
}

// checkClustered checks the clustering invariants: offsets cover the
// arrays, every tuple lies in the partition its low key bits select,
// and the clustering is stable (tuples keep input order within a
// partition).
func checkClustered(t *testing.T, inK []int64, inV []float64, ck []int64, cv []float64, offs []int, bits int) {
	t.Helper()
	if len(offs) != (1<<bits)+1 {
		t.Fatalf("%d offsets for %d bits", len(offs), bits)
	}
	if offs[0] != 0 || offs[len(offs)-1] != len(inK) {
		t.Fatalf("offsets %v do not cover %d tuples", offs[:min(8, len(offs))], len(inK))
	}
	mask := uint64(1)<<bits - 1
	for p := 0; p+1 < len(offs); p++ {
		if offs[p] > offs[p+1] {
			t.Fatalf("partition %d has negative length", p)
		}
		for i := offs[p]; i < offs[p+1]; i++ {
			if got := uint64(ck[i]) & mask; got != uint64(p) {
				t.Fatalf("tuple %d: key %d has radix %d, stored in partition %d", i, ck[i], got, p)
			}
		}
	}
	// Stability: per partition, the (key, value) tuples must appear in
	// input order. Rebuild the expected order with a stable filter.
	for p := 0; p+1 < len(offs); p++ {
		at := offs[p]
		for i := range inK {
			if uint64(inK[i])&mask != uint64(p) {
				continue
			}
			if ck[at] != inK[i] || cv[at] != inV[i] {
				t.Fatalf("partition %d not stable at %d: got (%d, %v), want (%d, %v)",
					p, at, ck[at], cv[at], inK[i], inV[i])
			}
			at++
		}
		if at != offs[p+1] {
			t.Fatalf("partition %d has %d tuples, offsets say %d", p, at-offs[p], offs[p+1]-offs[p])
		}
	}
}

func TestRadixClusterKVInvariants(t *testing.T) {
	for name, gen := range kvInputs(5000) {
		for _, n := range []int{0, 1, 5, 5000} {
			keys, vals := genKV(n, gen, 11)
			for _, cfg := range []struct{ bits, passes int }{{1, 1}, {4, 1}, {4, 2}, {7, 3}} {
				ck, cv, offs, err := RadixClusterKV(keys, vals, cfg.bits, cfg.passes, Serial())
				if err != nil {
					t.Fatalf("%s n=%d B=%d P=%d: %v", name, n, cfg.bits, cfg.passes, err)
				}
				checkClustered(t, keys, vals, ck, cv, offs, cfg.bits)
			}
		}
	}
}

// TestRadixClusterKVParallelMatchesSerial: the parallel path must be
// byte-identical to serial at every worker count, including the
// per-worker-histogram big-region path (forced by large n) and the
// region fan-out of later passes.
func TestRadixClusterKVParallelMatchesSerial(t *testing.T) {
	n := 1 << 16
	if testing.Short() {
		n = 1 << 14
	}
	for name, gen := range kvInputs(n) {
		keys, vals := genKV(n, gen, 23)
		for _, cfg := range []struct{ bits, passes int }{{6, 1}, {10, 2}, {13, 3}} {
			sk, sv, so, err := RadixClusterKV(keys, vals, cfg.bits, cfg.passes, Serial())
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 3, 8} {
				pk, pv, po, err := RadixClusterKV(keys, vals, cfg.bits, cfg.passes, Options{Parallelism: workers})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(sk, pk) || !reflect.DeepEqual(sv, pv) || !reflect.DeepEqual(so, po) {
					t.Fatalf("%s B=%d P=%d workers=%d: parallel clustering differs from serial",
						name, cfg.bits, cfg.passes, workers)
				}
			}
		}
	}
}

func TestRadixClusterKVZeroBitsIsZeroCopy(t *testing.T) {
	keys, vals := genKV(64, func(rng *workload.RNG, i int) int64 { return int64(i) }, 3)
	ck, cv, offs, err := RadixClusterKV(keys, vals, 0, 1, Serial())
	if err != nil {
		t.Fatal(err)
	}
	if &ck[0] != &keys[0] || &cv[0] != &vals[0] {
		t.Error("bits=0 copied the input")
	}
	if !reflect.DeepEqual(offs, []int{0, 64}) {
		t.Errorf("bits=0 offsets = %v", offs)
	}
}

func TestRadixClusterKVErrors(t *testing.T) {
	keys, vals := genKV(8, func(rng *workload.RNG, i int) int64 { return int64(i) }, 4)
	if _, _, _, err := RadixClusterKV(keys, vals, -1, 1, Serial()); err == nil {
		t.Error("negative bits accepted")
	}
	if _, _, _, err := RadixClusterKV(keys, vals, MaxBits+1, 1, Serial()); err == nil {
		t.Error("oversized bits accepted")
	}
	if _, _, _, err := RadixClusterKV(keys, vals, 3, 0, Serial()); err == nil {
		t.Error("zero passes accepted")
	}
	if _, _, _, err := RadixClusterKV(keys, vals, 3, 4, Serial()); err == nil {
		t.Error("more passes than bits accepted")
	}
	if _, _, _, err := RadixClusterKV(keys, vals[:4], 3, 1, Serial()); err == nil {
		t.Error("length mismatch accepted")
	}
}

// TestRadixClusterKVRange: clustering on the high bits of key−lo puts
// partition p's keys in [lo + p·2^start, lo + (p+1)·2^start), so the
// partitions ascend in key order; the clustering is stable, the same at
// 1 and 4 workers and under the simulator, and it covers ranges at the
// int64 extremes.
func TestRadixClusterKVRange(t *testing.T) {
	for _, tc := range []struct {
		name             string
		lo, span         int64
		start, bits, pas int
	}{
		{"dense", 0, 1 << 12, 6, 6, 1},
		{"negative", -5000, 1 << 13, 7, 6, 2},
		{"min-int64", math.MinInt64, 1 << 10, 4, 6, 2},
		{"max-int64", math.MaxInt64 - 999, 1000, 3, 7, 1},
	} {
		keys, vals := genKV(20000, func(rng *workload.RNG, i int) int64 { return tc.lo + int64(rng.Intn(int(tc.span))) }, 5)
		ck, cv, offs, err := RadixClusterKVRange(keys, vals, tc.lo, tc.start, tc.bits, tc.pas, Serial())
		if err != nil {
			t.Fatal(err)
		}
		part := func(k int64) int { return int((uint64(k) - uint64(tc.lo)) >> tc.start) }
		at := 0
		for p := 0; p+1 < len(offs); p++ {
			for i := range keys {
				if part(keys[i]) != p {
					continue
				}
				if ck[at] != keys[i] || cv[at] != vals[i] {
					t.Fatalf("%s: partition %d not stable at %d: got (%d, %v), want (%d, %v)",
						tc.name, p, at, ck[at], cv[at], keys[i], vals[i])
				}
				at++
			}
			if at != offs[p+1] {
				t.Fatalf("%s: partition %d ends at %d, offsets say %d", tc.name, p, at, offs[p+1])
			}
		}
		for i := 1; i < len(ck); i++ {
			if part(ck[i]) < part(ck[i-1]) {
				t.Fatalf("%s: partitions do not ascend at %d", tc.name, i)
			}
		}
		pk, pv, poffs, err := RadixClusterKVRange(keys, vals, tc.lo, tc.start, tc.bits, tc.pas, Options{Parallelism: 4})
		if err != nil || !reflect.DeepEqual(pk, ck) || !reflect.DeepEqual(pv, cv) || !reflect.DeepEqual(poffs, offs) {
			t.Fatalf("%s: 4 workers differ from 1 (%v)", tc.name, err)
		}
		sim := memsim.MustNew(memsim.Origin2000())
		sk, sv, soffs, _, err := RadixClusterKVRangeSim(sim, keys, vals, sim.Alloc(KVPairBytes*len(keys)), tc.lo, tc.start, tc.bits, tc.pas)
		if err != nil || !reflect.DeepEqual(sk, ck) || !reflect.DeepEqual(sv, cv) || !reflect.DeepEqual(soffs, offs) {
			t.Fatalf("%s: simulated clustering differs from native (%v)", tc.name, err)
		}
	}
	if _, _, _, err := RadixClusterKVRange([]int64{1}, []float64{1}, 0, 60, 6, 1, Serial()); err == nil {
		t.Error("digit bits past bit 63 accepted")
	}
}

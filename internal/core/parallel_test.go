package core

import (
	"fmt"
	"testing"

	"monetlite/internal/bat"
	"monetlite/internal/hashtab"
	"monetlite/internal/memsim"
	"monetlite/internal/workload"
)

// The parallel engine must be a pure performance feature: for every
// input shape and worker count, its output is byte-identical to the
// serial operators'. These tests cross-check that on uniform, skewed,
// duplicate-heavy, empty-cluster and tiny inputs. Run with -race to
// exercise the worker pool under the race detector.

// samePairs reports whether two join indexes (or BATs) are
// byte-identical: same length, same BUNs in the same order.
func samePairs(t *testing.T, label string, got, want *bat.Pairs) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: length %d, want %d", label, got.Len(), want.Len())
	}
	for i := range want.BUNs {
		if got.BUNs[i] != want.BUNs[i] {
			t.Fatalf("%s: BUN %d = %+v, want %+v", label, i, got.BUNs[i], want.BUNs[i])
		}
	}
}

// skewedPairs concentrates half the tuples in radix cluster 0 of a
// B-bit clustering (keys ≡ 0 mod 2^B, identity hash), the rest
// uniform — the worst case for equal-cluster-count work division.
func skewedPairs(n, bits int, seed uint64) *bat.Pairs {
	rng := workload.NewRNG(seed)
	buns := make([]bat.Pair, n)
	for i := range buns {
		var key uint32
		if i%2 == 0 {
			key = uint32(i) << bits
		} else {
			key = uint32(rng.Intn(1 << 30))
		}
		buns[i] = bat.Pair{Head: bat.Oid(i), Tail: key}
	}
	return bat.FromPairs(buns)
}

// dupPairs draws keys from a tiny domain so every probe matches many
// build tuples.
func dupPairs(n, domain int, seed uint64) *bat.Pairs {
	rng := workload.NewRNG(seed)
	buns := make([]bat.Pair, n)
	for i := range buns {
		buns[i] = bat.Pair{Head: bat.Oid(i), Tail: uint32(rng.Intn(domain))}
	}
	return bat.FromPairs(buns)
}

// evenPairs uses only even keys, leaving every odd radix cluster
// empty.
func evenPairs(n int, seed uint64) *bat.Pairs {
	rng := workload.NewRNG(seed)
	buns := make([]bat.Pair, n)
	for i := range buns {
		buns[i] = bat.Pair{Head: bat.Oid(i), Tail: uint32(rng.Intn(1<<30)) &^ 1}
	}
	return bat.FromPairs(buns)
}

func parallelCases() []struct {
	name string
	l, r *bat.Pairs
} {
	lu, ru := workload.JoinInputs(20000, 11)
	return []struct {
		name string
		l, r *bat.Pairs
	}{
		{"uniform", lu, ru},
		{"skewed", skewedPairs(16384, 6, 12), skewedPairs(16384, 6, 13)},
		{"duplicates", dupPairs(2048, 64, 14), dupPairs(2048, 64, 15)},
		{"empty-clusters", evenPairs(8192, 16), evenPairs(8192, 17)},
		{"tiny", workload.UniquePairs(3, 18), workload.UniquePairs(3, 19)},
		{"single", workload.UniquePairs(1, 20), workload.UniquePairs(1, 21)},
		{"empty", bat.NewPairs(0), bat.NewPairs(0)},
	}
}

var workerCounts = []int{0, 2, 3, 5, 16}

func TestParallelClusterMatchesSerial(t *testing.T) {
	for _, tc := range parallelCases() {
		for _, split := range [][]int{{6}, {4, 4}, {3, 3, 2}} {
			want, err := RadixClusterSplitOpts(nil, tc.l, split, nil, Serial())
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range workerCounts {
				got, err := RadixClusterSplitOpts(nil, tc.l, split, nil, Options{Parallelism: w})
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%s/split=%v/workers=%d", tc.name, split, w)
				samePairs(t, label, got.Pairs, want.Pairs)
				if len(got.Offsets) != len(want.Offsets) {
					t.Fatalf("%s: %d offsets, want %d", label, len(got.Offsets), len(want.Offsets))
				}
				for i := range want.Offsets {
					if got.Offsets[i] != want.Offsets[i] {
						t.Fatalf("%s: offset %d = %d, want %d", label, i, got.Offsets[i], want.Offsets[i])
					}
				}
				if err := got.Validate(); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
			}
		}
	}
}

// TestParallelClusterMonoRegion drives the skew path of the hybrid
// pass scheme: keys with all low 8 bits zero keep every tuple in one
// region after the first pass, so later passes must split that single
// big region across the pool rather than serializing it on one worker.
func TestParallelClusterMonoRegion(t *testing.T) {
	n := 1 << 16
	rng := workload.NewRNG(25)
	buns := make([]bat.Pair, n)
	for i := range buns {
		buns[i] = bat.Pair{Head: bat.Oid(i), Tail: uint32(i) << 8}
	}
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		buns[i], buns[j] = buns[j], buns[i]
	}
	in := bat.FromPairs(buns)
	for _, split := range [][]int{{4, 4}, {3, 3, 2}, {6, 6}} {
		want, err := RadixClusterSplitOpts(nil, in, split, nil, Serial())
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range workerCounts {
			got, err := RadixClusterSplitOpts(nil, in, split, nil, Options{Parallelism: w})
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("mono/split=%v/workers=%d", split, w)
			samePairs(t, label, got.Pairs, want.Pairs)
			for i := range want.Offsets {
				if got.Offsets[i] != want.Offsets[i] {
					t.Fatalf("%s: offset %d = %d, want %d", label, i, got.Offsets[i], want.Offsets[i])
				}
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
		}
	}
}

// TestParallelAbsurdParallelism checks that enormous Parallelism
// values are clamped to the available work instead of oversizing
// pools or overflowing the task-grain arithmetic.
func TestParallelAbsurdParallelism(t *testing.T) {
	l, r := workload.JoinInputs(4096, 26)
	for _, w := range []int{1 << 20, 1 << 61} {
		opt := Options{Parallelism: w}
		want, err := PartitionedHashJoinOpts(nil, l, r, 6, 2, nil, Serial())
		if err != nil {
			t.Fatal(err)
		}
		got, err := PartitionedHashJoinOpts(nil, l, r, 6, 2, nil, opt)
		if err != nil {
			t.Fatal(err)
		}
		samePairs(t, fmt.Sprintf("absurd=%d", w), got, want)
	}
}

func TestParallelJoinsMatchSerial(t *testing.T) {
	for _, tc := range parallelCases() {
		for _, h := range []hashtab.Hash{nil, hashtab.Mult} {
			hname := "identity"
			if h != nil {
				hname = "mult"
			}
			wantPh, err := PartitionedHashJoinOpts(nil, tc.l, tc.r, 6, 2, h, Serial())
			if err != nil {
				t.Fatal(err)
			}
			wantRx, err := RadixJoinOpts(nil, tc.l, tc.r, 8, 2, h, Serial())
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range workerCounts {
				opt := Options{Parallelism: w}
				gotPh, err := PartitionedHashJoinOpts(nil, tc.l, tc.r, 6, 2, h, opt)
				if err != nil {
					t.Fatal(err)
				}
				samePairs(t, fmt.Sprintf("phash/%s/%s/workers=%d", tc.name, hname, w), gotPh, wantPh)
				gotRx, err := RadixJoinOpts(nil, tc.l, tc.r, 8, 2, h, opt)
				if err != nil {
					t.Fatal(err)
				}
				samePairs(t, fmt.Sprintf("radix/%s/%s/workers=%d", tc.name, hname, w), gotRx, wantRx)
			}
		}
	}
}

func TestParallelExecuteMatchesSerial(t *testing.T) {
	l, r := workload.JoinInputs(1<<16, 22)
	m := memsim.Origin2000()
	for _, s := range Strategies() {
		p := NewPlan(s, l.Len(), m)
		want, err := ExecuteOpts(nil, l, r, p, nil, Serial())
		if err != nil {
			t.Fatal(err)
		}
		got, err := ExecuteOpts(nil, l, r, p, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		samePairs(t, s.String(), got, want)
	}
}

// TestParallelSimFallsBackSerial checks the engine contract: with a
// simulator attached, Opts operators produce the exact event counts of
// the serial path (memsim.Sim is single-goroutine by design).
func TestParallelSimFallsBackSerial(t *testing.T) {
	l, r := workload.JoinInputs(4096, 23)
	simA := memsim.MustNew(memsim.Origin2000())
	want, err := PartitionedHashJoinOpts(simA, l, r, 6, 1, nil, Serial())
	if err != nil {
		t.Fatal(err)
	}
	l.Unbind()
	r.Unbind()
	simB := memsim.MustNew(memsim.Origin2000())
	got, err := PartitionedHashJoinOpts(simB, l, r, 6, 1, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l.Unbind()
	r.Unbind()
	samePairs(t, "sim fallback", got, want)
	if simA.Stats() != simB.Stats() {
		t.Errorf("instrumented Opts run diverged from serial: %+v vs %+v", simB.Stats(), simA.Stats())
	}
}

func TestOptionsWorkers(t *testing.T) {
	if got := Serial().Workers(); got != 1 {
		t.Errorf("Serial().Workers() = %d", got)
	}
	if got := (Options{Parallelism: 7}).Workers(); got != 7 {
		t.Errorf("workers = %d, want 7", got)
	}
	if got := (Options{}).Workers(); got < 1 {
		t.Errorf("auto workers = %d", got)
	}
}

func TestBitsValidation(t *testing.T) {
	in := workload.UniquePairs(64, 24)
	for _, bits := range []int{-1, MaxBits + 1, 33, 64} {
		if _, err := RadixClusterOpts(nil, in, bits, 1, nil, Serial()); err == nil {
			t.Errorf("RadixCluster accepted bits=%d", bits)
		}
		if _, err := RadixClusterOpts(nil, in, bits, 1, nil, Options{}); err == nil {
			t.Errorf("RadixClusterOpts accepted bits=%d", bits)
		}
		if err := CheckBits(bits); err == nil {
			t.Errorf("CheckBits accepted %d", bits)
		}
	}
	for _, split := range [][]int{{0}, {-3}, {16, 16}, {27}} {
		if _, err := RadixClusterSplitOpts(nil, in, split, nil, Serial()); err == nil {
			t.Errorf("RadixClusterSplit accepted %v", split)
		}
		if _, err := RadixClusterSplitOpts(nil, in, split, nil, Options{}); err == nil {
			t.Errorf("RadixClusterSplitOpts accepted %v", split)
		}
	}
	for _, p := range []Plan{
		{Strategy: PhashL2, Bits: -1, Passes: 1},
		{Strategy: PhashL2, Bits: 40, Passes: 2},
		{Strategy: Radix8, Bits: 8, Passes: 0},
		{Strategy: Radix8, Bits: 4, Passes: 5},
	} {
		if _, err := ExecuteOpts(nil, in, in, p, nil, Serial()); err == nil {
			t.Errorf("Execute accepted invalid plan %+v", p)
		}
		if _, err := ExecuteOpts(nil, in, in, p, nil, Options{}); err == nil {
			t.Errorf("ExecuteOpts accepted invalid plan %+v", p)
		}
	}
	if got := EvenBitSplit(8, 0); got != nil {
		t.Errorf("EvenBitSplit(8, 0) = %v, want nil", got)
	}
}

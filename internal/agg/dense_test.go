package agg

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// denseLos are the window bases FuzzDenseFold picks from: the int64
// extremes (the window then ends at MaxInt64 or starts at MinInt64),
// negatives, zero and an odd positive.
var denseLos = []int64{math.MinInt64, -1 << 40, -3, 0, 7, math.MaxInt64 - 511}

// denseVals are the special values FuzzDenseFold mixes in.
var denseVals = []float64{math.NaN(), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	math.MaxFloat64, -math.SmallestNonzeroFloat64, 1e300}

// densePairs decodes two bytes per (key, value) pair into a window of
// slots keys from lo: the first byte picks the slot, the second a
// special value or a small fraction.
func densePairs(data []byte, lo int64, slots int) ([]int64, []float64) {
	n := len(data) / 2
	keys, vals := make([]int64, n), make([]float64, n)
	for i := range keys {
		keys[i] = lo + int64(int(data[2*i])%slots)
		if v := data[2*i+1]; v < 32 {
			vals[i] = denseVals[int(v)%len(denseVals)]
		} else {
			vals[i] = float64(int8(v)) / 8
		}
	}
	return keys, vals
}

// FuzzDenseFold: for any key set in a window and any split into
// morsels, Dense's per-morsel fold + Compact and its morsel-order
// Merge give, bit for bit, Table.Fold + Compact and Table.Merge put in
// key order — with NaN/±0/±Inf values, windows at the int64 extremes,
// windows reused at a new base and size, and vectors of any length.
// Drain appends the same rows behind existing ones, and the merge
// leaves the accumulator empty.
func FuzzDenseFold(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 1, 3, 0, 2, 0, 0, 1, 4}, uint8(3), uint8(0), uint64(1))
	f.Add([]byte{5, 0, 5, 1, 5, 2, 9, 3, 9, 255, 0, 7}, uint8(9), uint8(5), uint64(7))
	many := make([]byte, 2*600)
	for i := 0; i < 600; i++ {
		many[2*i], many[2*i+1] = byte(i*37), byte(i*7)
	}
	f.Add(many, uint8(200), uint8(2), uint64(3))
	f.Fuzz(func(t *testing.T, data []byte, slotsB, loB uint8, seed uint64) {
		slots := int(slotsB) + 1
		lo := denseLos[int(loB)%len(denseLos)]
		keys, vals := densePairs(data, lo, slots)
		rng := rand.New(rand.NewPCG(seed, 0))
		var (
			tab          Table
			dense        Dense
			parts, dpart []GroupResult
		)
		// A window used before at another base and size must not leak.
		dense.Reset(3, 70, nil)
		dense.Fold([]int64{3, 50, 72}, []float64{1, 2, 3})
		dense.Compact()
		for at := 0; at < len(keys) || at == 0; {
			hi := at + rng.IntN(len(keys)-at+1)
			tab.Presize(1, nil)
			dense.Reset(lo, slots, nil)
			for v := at; v < hi; {
				w := min(hi, v+1+rng.IntN(64))
				tab.Fold(keys[v:w], vals[v:w])
				dense.Fold(keys[v:w], vals[v:w])
				v = w
			}
			if dense.n != tab.n {
				t.Fatalf("split [%d,%d): %d dense groups, table %d", at, hi, dense.n, tab.n)
			}
			part, dp := tab.Compact(), dense.Compact()
			if want := sorted(&part); !equalRows(&dp, want) {
				t.Fatalf("split [%d,%d): dense partial %+v != table's in key order %+v", at, hi, dp, want)
			}
			parts, dpart = append(parts, part), append(dpart, dp)
			if hi == len(keys) {
				break
			}
			at = hi
		}
		merged := tab.Merge(parts, nil)
		got := dense.Merge(dpart, lo, slots, nil)
		if want := sorted(&merged); !equalRows(&got, want) {
			t.Fatalf("dense merge %+v != table merge in key order %+v", got, want)
		}
		// Drain behind an existing row, into a result that must grow.
		res := GroupResult{Key: []int64{-9}, Count: []int64{1}, Sum: []float64{1}, Min: []float64{1}, Max: []float64{1}}
		dense.Reset(lo, slots, nil)
		dense.Fold(keys, vals)
		dense.Drain(&res)
		tab.Presize(1, nil)
		tab.Fold(keys, vals)
		whole := tab.Compact()
		want := sorted(&whole)
		tail := GroupResult{Key: res.Key[1:], Count: res.Count[1:], Sum: res.Sum[1:], Min: res.Min[1:], Max: res.Max[1:]}
		if res.Key[0] != -9 || !equalRows(&tail, want) {
			t.Fatalf("drain %+v != table fold in key order %+v behind the existing row", res, want)
		}
		if dense.n != 0 || slices.ContainsFunc(dense.used, func(w uint64) bool { return w != 0 }) ||
			slices.ContainsFunc(dense.slots, func(s denseSlot) bool { return s != denseSlot{} }) {
			t.Fatalf("drain left groups behind: %d groups", dense.n)
		}
	})
}

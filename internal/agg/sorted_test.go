package agg

import (
	"cmp"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// sorted returns a copy of g in ascending key order, leaving g as it
// is: the tests' form of SortByKey.
func sorted(g *GroupResult) *GroupResult {
	c := &GroupResult{
		Key:   slices.Clone(g.Key),
		Count: slices.Clone(g.Count),
		Sum:   slices.Clone(g.Sum),
		Min:   slices.Clone(g.Min),
		Max:   slices.Clone(g.Max),
	}
	c.SortByKey()
	return c
}

// TestSortedCanonicalOrder pins SortByKey's in-place semantics: the
// receiver itself ends in ascending key order with every row moving
// with its key, negative keys first.
func TestSortedCanonicalOrder(t *testing.T) {
	g := &GroupResult{
		Key:   []int64{30, 5, 90, -2, 14},
		Count: []int64{3, 1, 9, 2, 4},
		Sum:   []float64{30.5, 1.5, 9.25, 2.75, 4.0},
		Min:   []float64{1, 2, 3, 4, 5},
		Max:   []float64{10, 20, 30, 40, 50},
	}
	if passes := g.SortByKey(); passes != 1 {
		t.Errorf("SortByKey ran %d passes over a 7-bit key range, want 1", passes)
	}
	want := &GroupResult{
		Key:   []int64{-2, 5, 14, 30, 90},
		Count: []int64{2, 1, 4, 3, 9},
		Sum:   []float64{2.75, 1.5, 4.0, 30.5, 9.25},
		Min:   []float64{4, 2, 5, 1, 3},
		Max:   []float64{40, 20, 50, 10, 30},
	}
	if !equalRows(g, want) {
		t.Fatalf("SortByKey = %+v, want %+v", g, want)
	}
	if passes := g.SortByKey(); passes != 0 {
		t.Errorf("SortByKey on ascending rows ran %d passes, want 0", passes)
	}
}

// equalRows reports whether a and b hold bitwise the same rows.
func equalRows(a, b *GroupResult) bool {
	bitsEq := func(x, y []float64) bool {
		return slices.EqualFunc(x, y, func(p, q float64) bool { return math.Float64bits(p) == math.Float64bits(q) })
	}
	return slices.Equal(a.Key, b.Key) && slices.Equal(a.Count, b.Count) &&
		bitsEq(a.Sum, b.Sum) && bitsEq(a.Min, b.Min) && bitsEq(a.Max, b.Max)
}

// sortByKeySizes are the row counts FuzzSortByKey picks from.
var sortByKeySizes = []int{0, 1, 2, 64, 100_000}

// FuzzSortByKey checks SortByKey against a comparison sort of the row
// index: bitwise-equal columns, every row moving with its key, over
// unique keys of any width — the int64 extremes, negatives, dense and
// sparse ranges, already-sorted and reverse-sorted input — and an
// empty result keeping non-nil zero-length columns.
func FuzzSortByKey(f *testing.F) {
	for size := range sortByKeySizes {
		for shape := range 4 {
			f.Add(uint64(size*7+shape), uint8(size), uint8(shape), uint8(64))
		}
	}
	f.Add(uint64(1), uint8(4), uint8(0), uint8(17)) // 10^5 keys in a 17-bit range
	f.Add(uint64(2), uint8(3), uint8(1), uint8(6))  // dense: 64 keys in 64 values
	f.Add(uint64(3), uint8(3), uint8(3), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, sizeSel, shape, spread uint8) {
		n := sortByKeySizes[int(sizeSel)%len(sortByKeySizes)]
		g := genSortInput(seed, n, shape, spread)
		idx := make([]int, len(g.Key))
		for i := range idx {
			idx[i] = i
		}
		slices.SortFunc(idx, func(a, b int) int { return cmp.Compare(g.Key[a], g.Key[b]) })
		want := &GroupResult{}
		for _, i := range idx {
			want.Key = append(want.Key, g.Key[i])
			want.Count = append(want.Count, g.Count[i])
			want.Sum = append(want.Sum, g.Sum[i])
			want.Min = append(want.Min, g.Min[i])
			want.Max = append(want.Max, g.Max[i])
		}
		ascending := slices.IsSorted(g.Key)
		passes := g.SortByKey()
		if ascending && passes != 0 {
			t.Fatalf("%d ascending keys took %d passes", len(g.Key), passes)
		}
		if passes > 6 {
			t.Fatalf("%d passes over 64-bit keys, want at most 6", passes)
		}
		if len(g.Key) == 0 {
			if g.Key == nil || g.Count == nil || g.Sum == nil || g.Min == nil || g.Max == nil {
				t.Fatalf("empty result has nil columns: %+v", g)
			}
			return
		}
		if !equalRows(g, want) {
			for i := range want.Key {
				if g.Key[i] != want.Key[i] || g.Count[i] != want.Count[i] {
					t.Fatalf("row %d = (%d, %d), want (%d, %d)", i, g.Key[i], g.Count[i], want.Key[i], want.Count[i])
				}
			}
			t.Fatalf("float columns did not move with their keys")
		}
	})
}

// genSortInput builds n rows with unique keys whose offsets from a
// random base span at most spread bits (64: any int64), laid out by
// shape: 0 random, 1 ascending, 2 descending, 3 random plus both int64
// extremes. Every row carries its own distinct payload, so a row that
// left its key shows.
func genSortInput(seed uint64, n int, shape, spread uint8) *GroupResult {
	r := rand.New(rand.NewPCG(seed, uint64(shape)<<8|uint64(spread)))
	width := min(int(spread), 64)
	for width < 63 && 1<<width < 2*n {
		width++ // room for n unique keys
	}
	base := int64(r.Uint64())
	key := func() int64 {
		if width >= 64 {
			return int64(r.Uint64())
		}
		return base + int64(r.Uint64N(1<<width))
	}
	seen := make(map[int64]bool, n)
	g := &GroupResult{}
	add := func(k int64) {
		if seen[k] || len(g.Key) == n {
			return
		}
		seen[k] = true
		i := len(g.Key)
		g.Key = append(g.Key, k)
		g.Count = append(g.Count, int64(i)*3+1)
		g.Sum = append(g.Sum, float64(i)+0.5)
		g.Min = append(g.Min, -float64(i))
		g.Max = append(g.Max, math.Float64frombits(uint64(k)|1))
	}
	if shape%4 == 3 {
		add(math.MinInt64)
		add(math.MaxInt64)
	}
	for len(g.Key) < n {
		add(key())
	}
	if s := shape % 4; s == 1 || s == 2 {
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		slices.SortFunc(perm, func(a, b int) int { return cmp.Compare(g.Key[a], g.Key[b]) })
		if s == 2 {
			slices.Reverse(perm)
		}
		g.Key = permute(g.Key, perm)
		g.Count = permute(g.Count, perm)
		g.Sum = permute(g.Sum, perm)
		g.Min = permute(g.Min, perm)
		g.Max = permute(g.Max, perm)
	}
	return g
}

func permute[T any](s []T, perm []int) []T {
	out := make([]T, len(s))
	for i, j := range perm {
		out[i] = s[j]
	}
	return out
}

// BenchmarkSortByKey sorts G1-sized results: ~226K unique keys drawn
// from a 19-bit range, in random (first-seen) order.
func BenchmarkSortByKey(b *testing.B) {
	in := genSortInput(1, 226_594, 0, 19)
	g := &GroupResult{}
	b.SetBytes(int64(len(in.Key)) * GroupRowBytes)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g.Key, g.Count = append(g.Key[:0], in.Key...), append(g.Count[:0], in.Count...)
		g.Sum, g.Min, g.Max = append(g.Sum[:0], in.Sum...), append(g.Min[:0], in.Min...), append(g.Max[:0], in.Max...)
		b.StartTimer()
		g.SortByKey()
	}
}

package sortx

import (
	"sort"
	"testing"
	"testing/quick"

	"monetlite/internal/bat"
	"monetlite/internal/memsim"
	"monetlite/internal/workload"
)

func tailsOf(p *bat.Pairs) []uint32 {
	out := make([]uint32, p.Len())
	for i, b := range p.BUNs {
		out[i] = b.Tail
	}
	return out
}

func TestSortPairsAgainstStdlib(t *testing.T) {
	p := workload.UniquePairs(10000, 21)
	want := tailsOf(p)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	SortPairs(nil, p, nil)
	got := tailsOf(p)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("mismatch at %d: %d vs %d", i, got[i], want[i])
		}
	}
}

func TestSortPreservesPairs(t *testing.T) {
	p := workload.UniquePairs(1000, 8)
	orig := make(map[bat.Pair]bool, p.Len())
	for _, b := range p.BUNs {
		orig[b] = true
	}
	SortPairs(nil, p, nil)
	for _, b := range p.BUNs {
		if !orig[b] {
			t.Fatal("sort corrupted a BUN (head/tail pairing broken)")
		}
	}
}

func TestSortEdgeCases(t *testing.T) {
	empty := bat.NewPairs(0)
	SortPairs(nil, empty, nil) // must not panic
	one := bat.NewPairs(1)
	one.BUNs[0].Tail = 5
	SortPairs(nil, one, nil)
	if one.BUNs[0].Tail != 5 {
		t.Error("singleton mutated")
	}
	dup := bat.NewPairs(6)
	for i := range dup.BUNs {
		dup.BUNs[i] = bat.Pair{Head: bat.Oid(i), Tail: uint32(i % 2)}
	}
	SortPairs(nil, dup, nil)
	if !IsSortedByTail(dup) {
		t.Error("duplicates not sorted")
	}
}

func TestSortWithScratchReuse(t *testing.T) {
	p := workload.UniquePairs(500, 3)
	scratch := bat.NewPairs(500)
	SortPairs(nil, p, scratch)
	if !IsSortedByTail(p) {
		t.Error("not sorted with provided scratch")
	}
	// Wrong-size scratch is replaced internally, not an error.
	q := workload.UniquePairs(300, 4)
	SortPairs(nil, q, scratch)
	if !IsSortedByTail(q) {
		t.Error("not sorted with wrong-size scratch")
	}
}

func TestIsSortedByTail(t *testing.T) {
	p := bat.NewPairs(3)
	p.BUNs[0].Tail, p.BUNs[1].Tail, p.BUNs[2].Tail = 1, 2, 2
	if !IsSortedByTail(p) {
		t.Error("sorted reported unsorted")
	}
	p.BUNs[2].Tail = 0
	if IsSortedByTail(p) {
		t.Error("unsorted reported sorted")
	}
}

func TestMergeJoinSortedUnique(t *testing.T) {
	l, r := workload.JoinInputs(2000, 6)
	SortPairs(nil, l, nil)
	SortPairs(nil, r, nil)
	want := make(map[uint32][2]bat.Oid, 2000)
	for _, b := range l.BUNs {
		e := want[b.Tail]
		e[0] = b.Head
		want[b.Tail] = e
	}
	for _, b := range r.BUNs {
		e := want[b.Tail]
		e[1] = b.Head
		want[b.Tail] = e
	}
	n := 0
	MergeJoinSorted(nil, l, r, func(lh, rh bat.Oid) {
		n++
		found := false
		for _, e := range want {
			if e[0] == lh && e[1] == rh {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("spurious pair (%d,%d)", lh, rh)
		}
	})
	if n != 2000 {
		t.Errorf("merge produced %d pairs, want 2000", n)
	}
}

func TestMergeJoinDuplicates(t *testing.T) {
	l := bat.NewPairs(3)
	l.BUNs[0] = bat.Pair{Head: 0, Tail: 5}
	l.BUNs[1] = bat.Pair{Head: 1, Tail: 5}
	l.BUNs[2] = bat.Pair{Head: 2, Tail: 9}
	r := bat.NewPairs(3)
	r.BUNs[0] = bat.Pair{Head: 10, Tail: 5}
	r.BUNs[1] = bat.Pair{Head: 11, Tail: 7}
	r.BUNs[2] = bat.Pair{Head: 12, Tail: 9}
	var got [][2]bat.Oid
	MergeJoinSorted(nil, l, r, func(lh, rh bat.Oid) { got = append(got, [2]bat.Oid{lh, rh}) })
	// 2 L-tuples × 1 R-tuple on key 5, plus (2,12) on key 9.
	if len(got) != 3 {
		t.Fatalf("got %d pairs, want 3: %v", len(got), got)
	}
}

func TestInstrumentedSortCounts(t *testing.T) {
	sim := memsim.MustNew(memsim.Origin2000())
	p := workload.UniquePairs(4096, 13)
	p.Bind(sim)
	SortPairs(sim, p, nil)
	st := sim.Stats()
	// 4 passes × (count read + scatter read + scatter write) per tuple.
	want := uint64(4 * 3 * 4096)
	if st.Accesses != want {
		t.Errorf("accesses = %d, want %d", st.Accesses, want)
	}
	if !IsSortedByTail(p) {
		t.Error("instrumented sort incorrect")
	}
}

// Property: SortPairs sorts any uint32 multiset and preserves BUNs.
func TestSortProperty(t *testing.T) {
	f := func(tails []uint32) bool {
		p := bat.NewPairs(len(tails))
		for i, v := range tails {
			p.BUNs[i] = bat.Pair{Head: bat.Oid(i), Tail: v}
		}
		multiset := make(map[bat.Pair]int)
		for _, b := range p.BUNs {
			multiset[b]++
		}
		SortPairs(nil, p, nil)
		if !IsSortedByTail(p) {
			return false
		}
		for _, b := range p.BUNs {
			multiset[b]--
			if multiset[b] < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

package sel

import (
	"sort"
	"testing"
	"testing/quick"

	"monetlite/internal/bat"
	"monetlite/internal/memsim"
	"monetlite/internal/workload"
)

// testColumn builds a column of n values drawn from [0, domain).
func testColumn(n, domain int, seed uint64) *Column {
	rng := workload.NewRNG(seed)
	vals := make([]int32, n)
	for i := range vals {
		vals[i] = int32(rng.Intn(domain))
	}
	return NewColumn(vals)
}

func sortOids(os []bat.Oid) {
	sort.Slice(os, func(i, j int) bool { return os[i] < os[j] })
}

func equalOids(a, b []bat.Oid) bool {
	if len(a) != len(b) {
		return false
	}
	sortOids(a)
	sortOids(b)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestScanSelectExact(t *testing.T) {
	c := NewColumn([]int32{5, 1, 9, 5, 3, 7})
	got := ScanSelect(nil, c, 3, 6)
	want := []bat.Oid{0, 3, 4} // values 5, 5, 3
	if !equalOids(got, want) {
		t.Errorf("ScanSelect = %v, want %v", got, want)
	}
	if err := Validate(c, 3, 6, got); err != nil {
		t.Error(err)
	}
	if n := len(ScanSelect(nil, c, 100, 200)); n != 0 {
		t.Errorf("empty range returned %d", n)
	}
}

func TestHashIndexLookup(t *testing.T) {
	c := testColumn(5000, 500, 3)
	ix := BuildHashIndex(nil, c)
	for _, key := range []int32{0, 17, 250, 499} {
		got := ix.Lookup(nil, key)
		want := ScanSelect(nil, c, key, key)
		if !equalOids(got, want) {
			t.Errorf("Lookup(%d): %d oids, want %d", key, len(got), len(want))
		}
	}
	if n := len(ix.Lookup(nil, 10000)); n != 0 {
		t.Errorf("missing key returned %d oids", n)
	}
}

func TestTTreeLookupAndRange(t *testing.T) {
	c := testColumn(5000, 300, 5) // heavy duplication
	tt := BuildTTree(nil, c)
	for _, key := range []int32{0, 50, 299} {
		got := tt.Lookup(nil, key)
		want := ScanSelect(nil, c, key, key)
		if !equalOids(got, want) {
			t.Errorf("TTree.Lookup(%d): %d oids, want %d", key, len(got), len(want))
		}
	}
	got := tt.RangeSelect(nil, 100, 150)
	want := ScanSelect(nil, c, 100, 150)
	if !equalOids(got, want) {
		t.Errorf("TTree.RangeSelect: %d oids, want %d", len(got), len(want))
	}
	if d := tt.Depth(); d < 1 || d > 20 {
		t.Errorf("suspicious tree depth %d", d)
	}
}

func TestTTreeEmptyAndSingleton(t *testing.T) {
	empty := BuildTTree(nil, NewColumn(nil))
	if got := empty.Lookup(nil, 5); len(got) != 0 {
		t.Error("empty tree found something")
	}
	single := BuildTTree(nil, NewColumn([]int32{42}))
	if got := single.Lookup(nil, 42); len(got) != 1 || got[0] != 0 {
		t.Errorf("singleton lookup = %v", got)
	}
}

func TestCSSTreeLookupAndRange(t *testing.T) {
	c := testColumn(5000, 300, 7)
	ct := BuildCSSTree(nil, c)
	for _, key := range []int32{0, 50, 299, 1000} {
		got := ct.Lookup(nil, key)
		want := ScanSelect(nil, c, key, key)
		if !equalOids(got, want) {
			t.Errorf("CSSTree.Lookup(%d): %d oids, want %d", key, len(got), len(want))
		}
	}
	got := ct.RangeSelect(nil, 42, 84)
	want := ScanSelect(nil, c, 42, 84)
	if !equalOids(got, want) {
		t.Errorf("CSSTree.RangeSelect: %d oids, want %d", len(got), len(want))
	}
	if h := ct.Height(); h < 2 || h > 8 {
		t.Errorf("suspicious height %d for 5000 keys", h)
	}
}

func TestCSSTreeEmpty(t *testing.T) {
	ct := BuildCSSTree(nil, NewColumn(nil))
	if got := ct.Lookup(nil, 1); len(got) != 0 {
		t.Error("empty CSS tree found something")
	}
	if got := ct.RangeSelect(nil, 0, 10); len(got) != 0 {
		t.Error("empty CSS tree range found something")
	}
}

func TestCSSTreeNodeIsOneCacheLine(t *testing.T) {
	sim := memsim.MustNew(memsim.Origin2000())
	c := testColumn(100000, 1<<30, 11)
	ct := BuildCSSTree(sim, c)
	// A point lookup with a cold cache touches about Height lines: the
	// design point of [Ron98].
	sim.Reset()
	ct.Lookup(sim, c.Vals[0])
	st := sim.Stats()
	h := uint64(ct.Height())
	if st.L1Misses > 2*h+4 {
		t.Errorf("point lookup cost %d L1 misses, want ≈height %d", st.L1Misses, h)
	}
}

func TestPointLookupMissOrdering(t *testing.T) {
	// §3.2's claim, quantified: for point lookups on a large relation,
	// the cache-line B-tree touches fewer lines than the T-tree, and
	// both beat a full scan by orders of magnitude. The hash index uses
	// few accesses too but each is a random memory hit.
	const n = 1 << 18 // 1 MB column: out of L1, fits L2
	c := testColumn(n, 1<<30, 13)
	keys := make([]int32, 200)
	rng := workload.NewRNG(17)
	for i := range keys {
		keys[i] = c.Vals[rng.Intn(n)]
	}

	sim := memsim.MustNew(memsim.Origin2000())
	cc := NewColumn(c.Vals)
	hx := BuildHashIndex(sim, cc)
	tt := BuildTTree(sim, cc)
	ct := BuildCSSTree(sim, cc)

	measure := func(f func(k int32)) memsim.Stats {
		sim.Reset()
		for _, k := range keys {
			f(k)
		}
		return sim.Stats()
	}
	scanStats := measure(func(k int32) { ScanSelect(sim, cc, k, k) })
	hashStats := measure(func(k int32) { hx.Lookup(sim, k) })
	ttreeStats := measure(func(k int32) { tt.Lookup(sim, k) })
	cssStats := measure(func(k int32) { ct.Lookup(sim, k) })

	if cssStats.L1Misses >= ttreeStats.L1Misses {
		t.Errorf("CSS tree (%d L1) not below T-tree (%d L1)", cssStats.L1Misses, ttreeStats.L1Misses)
	}
	if ttreeStats.ElapsedNanos() >= scanStats.ElapsedNanos()/10 {
		t.Errorf("T-tree (%f) not ≫ faster than scan (%f)", ttreeStats.ElapsedMillis(), scanStats.ElapsedMillis())
	}
	if hashStats.ElapsedNanos() >= scanStats.ElapsedNanos()/10 {
		t.Errorf("hash (%f) not ≫ faster than scan (%f)", hashStats.ElapsedMillis(), scanStats.ElapsedMillis())
	}
}

func TestScanBestAtLowSelectivity(t *testing.T) {
	// §3.2: "if the selectivity is low, most data needs to be visited
	// and this is best done with a scan-select". A 90%-selectivity
	// range over a large column must favour the scan over the T-tree.
	const n = 1 << 18
	c := testColumn(n, 1000, 19)
	sim1 := memsim.MustNew(memsim.Origin2000())
	c1 := NewColumn(c.Vals)
	got := ScanSelect(sim1, c1, 0, 899)
	scanStats := sim1.Stats()

	sim2 := memsim.MustNew(memsim.Origin2000())
	c2 := NewColumn(c.Vals)
	tt := BuildTTree(sim2, c2)
	sim2.Reset()
	got2 := tt.RangeSelect(sim2, 0, 899)
	ttreeStats := sim2.Stats()

	if !equalOids(got, got2) {
		t.Fatal("scan and T-tree disagree")
	}
	if scanStats.ElapsedNanos() >= ttreeStats.ElapsedNanos() {
		t.Errorf("scan (%.2fms) not cheaper than T-tree (%.2fms) at 90%% selectivity",
			scanStats.ElapsedMillis(), ttreeStats.ElapsedMillis())
	}
}

// Property: all four access paths agree on arbitrary range selections.
func TestAccessPathsAgreeProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint16, loRaw, width uint8) bool {
		n := int(nRaw)%800 + 1
		c := testColumn(n, 100, seed)
		lo := int32(loRaw) % 100
		hi := lo + int32(width)%20
		want := ScanSelect(nil, c, lo, hi)
		tt := BuildTTree(nil, c)
		if !equalOids(tt.RangeSelect(nil, lo, hi), want) {
			return false
		}
		ct := BuildCSSTree(nil, c)
		if !equalOids(ct.RangeSelect(nil, lo, hi), want) {
			return false
		}
		// Hash index: equality on the bound.
		ix := BuildHashIndex(nil, c)
		return equalOids(ix.Lookup(nil, lo), ScanSelect(nil, c, lo, lo))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// rangeSelectByLeafScan is the leaf-at-a-time RangeSelect the
// exact-size copy replaced: descend to lo, then append OIDs while the
// leaf key stays ≤ hi.
func rangeSelectByLeafScan(t *CSSTree, lo, hi int32) []bat.Oid {
	out := []bat.Oid{}
	leaf := t.levels[0]
	if len(leaf) == 0 {
		return out
	}
	for i := t.lowerBound(nil, lo); i < len(leaf) && leaf[i] <= hi; i++ {
		out = append(out, t.oids[i])
	}
	return out
}

// TestCSSRangeSelectAndMarkRange: RangeSelect returns exactly the
// leaf-scan result, in value order, in one exact-size allocation (cap
// == len, never nil); MarkRange sets exactly the bits of those OIDs,
// reports their count, and two fresh simulators see identical traffic.
func TestCSSRangeSelectAndMarkRange(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 3000} {
		c := testColumn(n, 200, uint64(n)+1)
		ct := BuildCSSTree(nil, c)
		rng := workload.NewRNG(uint64(n) + 9)
		for round := 0; round < 40; round++ {
			lo, hi := int32(rng.Intn(240)-20), int32(rng.Intn(240)-20)
			want := rangeSelectByLeafScan(ct, lo, hi)
			got := ct.RangeSelect(nil, lo, hi)
			if got == nil || cap(got) != len(got) {
				t.Fatalf("n=%d [%d,%d]: RangeSelect nil=%v len %d cap %d", n, lo, hi, got == nil, len(got), cap(got))
			}
			checkOids(t, "RangeSelect", got, want)

			bits := make([]uint64, (n+63)/64)
			if marked := ct.MarkRange(nil, lo, hi, bits); marked != len(want) {
				t.Fatalf("n=%d [%d,%d]: MarkRange marked %d, want %d", n, lo, hi, marked, len(want))
			}
			set := 0
			for _, w := range bits {
				for ; w != 0; w &= w - 1 {
					set++
				}
			}
			for _, o := range want {
				if bits[o/64]&(1<<(o%64)) == 0 {
					t.Fatalf("n=%d [%d,%d]: OID %d not marked", n, lo, hi, o)
				}
			}
			if set != len(want) {
				t.Fatalf("n=%d [%d,%d]: %d bits set, want %d", n, lo, hi, set, len(want))
			}
		}
	}

	var stats [2]memsim.Stats
	for i := range stats {
		sim := memsim.MustNew(memsim.Origin2000())
		ct := BuildCSSTree(sim, testColumn(5000, 300, 21))
		bits := make([]uint64, (5000+63)/64)
		ct.MarkRange(sim, 40, 180, bits)
		ct.TouchMarks(sim, 0, 5000)
		stats[i] = sim.Stats()
	}
	if stats[0] != stats[1] {
		t.Errorf("two fresh simulators disagree:\n%+v\n%+v", stats[0], stats[1])
	}
}

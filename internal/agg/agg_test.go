package agg

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"monetlite/internal/bat"
	"monetlite/internal/memsim"
	"monetlite/internal/workload"
)

// refGroup computes the oracle aggregates with Go maps.
func refGroup(keys []int64, vals []float64) map[int64]struct {
	count int64
	sum   float64
	min   float64
	max   float64
} {
	out := make(map[int64]struct {
		count int64
		sum   float64
		min   float64
		max   float64
	})
	for i, k := range keys {
		e, ok := out[k]
		if !ok {
			e.min = math.Inf(1)
			e.max = math.Inf(-1)
		}
		e.count++
		e.sum += vals[i]
		if vals[i] < e.min {
			e.min = vals[i]
		}
		if vals[i] > e.max {
			e.max = vals[i]
		}
		out[k] = e
	}
	return out
}

func checkAgainstRef(t *testing.T, name string, g *GroupResult, keys []int64, vals []float64) {
	t.Helper()
	want := refGroup(keys, vals)
	if g.Groups() != len(want) {
		t.Fatalf("%s: %d groups, want %d", name, g.Groups(), len(want))
	}
	for i, k := range g.Key {
		w, ok := want[k]
		if !ok {
			t.Fatalf("%s: spurious group %d", name, k)
		}
		if g.Count[i] != w.count {
			t.Errorf("%s: group %d count %d, want %d", name, k, g.Count[i], w.count)
		}
		if math.Abs(g.Sum[i]-w.sum) > 1e-9*math.Max(1, math.Abs(w.sum)) {
			t.Errorf("%s: group %d sum %v, want %v", name, k, g.Sum[i], w.sum)
		}
		if g.Min[i] != w.min || g.Max[i] != w.max {
			t.Errorf("%s: group %d min/max %v/%v, want %v/%v", name, k, g.Min[i], g.Max[i], w.min, w.max)
		}
	}
}

func genInput(n, groups int, seed uint64) ([]int8, []float64, []int64) {
	rng := workload.NewRNG(seed)
	codes := make([]int8, n)
	vals := make([]float64, n)
	keys := make([]int64, n)
	for i := 0; i < n; i++ {
		codes[i] = int8(rng.Intn(groups))
		vals[i] = float64(rng.Intn(1000)) / 10
		keys[i] = int64(codes[i])
	}
	return codes, vals, keys
}

func TestHashGroupMatchesReference(t *testing.T) {
	codes, vals, keys := genInput(10000, 7, 1)
	g, err := HashGroup(nil, bat.NewI8(codes), bat.NewF64(vals))
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstRef(t, "hash", g, keys, vals)
}

func TestSortGroupMatchesReference(t *testing.T) {
	codes, vals, keys := genInput(10000, 7, 2)
	g, err := SortGroup(nil, bat.NewI8(codes), bat.NewF64(vals))
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstRef(t, "sort", g, keys, vals)
}

func TestGroupingAgree(t *testing.T) {
	codes, vals, _ := genInput(5000, 100, 3)
	h, err := HashGroup(nil, bat.NewI8(codes), bat.NewF64(vals))
	if err != nil {
		t.Fatal(err)
	}
	s, err := SortGroup(nil, bat.NewI8(codes), bat.NewF64(vals))
	if err != nil {
		t.Fatal(err)
	}
	hs, ss := sorted(h), sorted(s)
	if hs.Groups() != ss.Groups() {
		t.Fatalf("group counts differ: %d vs %d", hs.Groups(), ss.Groups())
	}
	for i := range hs.Key {
		if hs.Key[i] != ss.Key[i] || hs.Count[i] != ss.Count[i] ||
			math.Abs(hs.Sum[i]-ss.Sum[i]) > 1e-9*math.Max(1, math.Abs(hs.Sum[i])) {
			t.Errorf("row %d differs: hash(%d,%d,%v) sort(%d,%d,%v)",
				i, hs.Key[i], hs.Count[i], hs.Sum[i], ss.Key[i], ss.Count[i], ss.Sum[i])
		}
	}
}

// TestSortGroupRejectsKeysOutsideUint32: SortGroup sorts on 32-bit
// keys, so a key outside [0, 2^32) is an error rather than a group
// silently merged with the key sharing its low 32 bits; keys in range,
// both bounds included, group as before.
func TestSortGroupRejectsKeysOutsideUint32(t *testing.T) {
	for _, keys := range [][]int64{{1, 1 << 32, -1, 1<<32 - 1}, {-1}, {1 << 32}, {0, math.MinInt64}} {
		vals := make([]float64, len(keys))
		if _, err := SortGroup(nil, bat.NewI64(keys), bat.NewF64(vals)); err == nil {
			t.Errorf("keys %v accepted", keys)
		}
	}
	g, err := SortGroup(nil, bat.NewI64([]int64{1<<32 - 1, 0, 7, 0, 1<<32 - 1}), bat.NewF64([]float64{1, 2, 3, 4, 5}))
	if err != nil {
		t.Fatal(err)
	}
	want := &GroupResult{Key: []int64{0, 7, 1<<32 - 1}, Count: []int64{2, 1, 2},
		Sum: []float64{6, 3, 6}, Min: []float64{2, 3, 1}, Max: []float64{4, 3, 5}}
	if !reflect.DeepEqual(g, want) {
		t.Errorf("in-range keys: got %+v, want %+v", g, want)
	}
}

func TestGroupingValidation(t *testing.T) {
	if _, err := HashGroup(nil, nil, bat.NewF64(nil)); err == nil {
		t.Error("nil keys accepted")
	}
	if _, err := HashGroup(nil, bat.NewI8([]int8{1}), bat.NewF64(nil)); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := SortGroup(nil, bat.NewI8([]int8{1, 2}), bat.NewF64([]float64{1})); err == nil {
		t.Error("length mismatch accepted (sort)")
	}
}

func TestEmptyInput(t *testing.T) {
	for _, f := range []func(*memsim.Sim, bat.Vector, *bat.F64Vec) (*GroupResult, error){HashGroup, SortGroup} {
		g, err := f(nil, bat.NewI8(nil), bat.NewF64(nil))
		if err != nil {
			t.Fatal(err)
		}
		if g.Groups() != 0 {
			t.Errorf("empty input produced %d groups", g.Groups())
		}
	}
}

func TestSingleGroup(t *testing.T) {
	codes := make([]int8, 100)
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = 1
	}
	g, err := HashGroup(nil, bat.NewI8(codes), bat.NewF64(vals))
	if err != nil {
		t.Fatal(err)
	}
	if g.Groups() != 1 || g.Count[0] != 100 || g.Sum[0] != 100 {
		t.Errorf("single group result: %+v", g)
	}
}

func TestManyGroupsGrowth(t *testing.T) {
	// Force table growth: 50k distinct 16-bit keys.
	n := 50000
	codes := make([]int16, n)
	vals := make([]float64, n)
	for i := 0; i < n; i++ {
		codes[i] = int16(i % 30000)
		vals[i] = 1
	}
	g, err := HashGroup(nil, bat.NewI16(codes), bat.NewF64(vals))
	if err != nil {
		t.Fatal(err)
	}
	if g.Groups() != 30000 {
		t.Errorf("groups = %d, want 30000", g.Groups())
	}
}

func TestHashGroupBeatsSortGroupWhenGroupsFitCache(t *testing.T) {
	// §3.2: with a limited number of groups the hash table fits L2 (and
	// L1), making hash-grouping superior to sort/merge on memory access.
	const n = 1 << 18
	codes, vals, _ := genInput(n, 8, 9)
	m := memsim.Origin2000()

	simH := memsim.MustNew(m)
	if _, err := HashGroup(simH, bat.NewI8(codes), bat.NewF64(vals)); err != nil {
		t.Fatal(err)
	}
	simS := memsim.MustNew(m)
	if _, err := SortGroup(simS, bat.NewI8(codes), bat.NewF64(vals)); err != nil {
		t.Fatal(err)
	}
	h, s := simH.Stats(), simS.Stats()
	if h.ElapsedNanos() >= s.ElapsedNanos() {
		t.Errorf("hash-group (%.2fms) not faster than sort-group (%.2fms)",
			h.ElapsedMillis(), s.ElapsedMillis())
	}
	if h.L2Misses >= s.L2Misses {
		t.Errorf("hash-group L2 misses %d not below sort-group %d", h.L2Misses, s.L2Misses)
	}
}

func TestSortedOrder(t *testing.T) {
	codes := []int8{3, 1, 2, 1, 3}
	vals := []float64{1, 2, 3, 4, 5}
	g, err := HashGroup(nil, bat.NewI8(codes), bat.NewF64(vals))
	if err != nil {
		t.Fatal(err)
	}
	s := sorted(g)
	for i := 1; i < len(s.Key); i++ {
		if s.Key[i-1] >= s.Key[i] {
			t.Errorf("SortByKey not ascending: %v", s.Key)
		}
	}
}

// Property: both algorithms agree with the map oracle on arbitrary
// inputs.
func TestGroupingProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint16, gRaw uint8) bool {
		n := int(nRaw)%2000 + 1
		groups := int(gRaw)%100 + 1
		codes, vals, keys := genInput(n, groups, seed)
		h, err := HashGroup(nil, bat.NewI8(codes), bat.NewF64(vals))
		if err != nil {
			return false
		}
		s, err := SortGroup(nil, bat.NewI8(codes), bat.NewF64(vals))
		if err != nil {
			return false
		}
		want := refGroup(keys, vals)
		if h.Groups() != len(want) || s.Groups() != len(want) {
			return false
		}
		hs, ss := sorted(h), sorted(s)
		for i := range hs.Key {
			if hs.Key[i] != ss.Key[i] || hs.Count[i] != ss.Count[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Package agg implements the grouping/aggregation algorithms the
// paper contrasts in §3.2: hash-grouping — one scan keeping a
// temporary hash table of aggregate totals, superior as long as the
// table fits the memory caches — and sort/merge grouping, which first
// sorts the relation on the GROUP-BY attribute (random access over the
// entire relation) and then scans. A third strategy, RadixGroup
// (radix.go), extends §4's radix-cluster remedy to aggregation: when
// the group count outgrows the caches, partition the feed on the low
// key bits first so every partition's table is cache-resident again.
//
// The hash table is written once: Table (table.go) is the grouping
// table HashGroup and RadixGroup fold through, and the one the
// engine's hash and radix aggregation sinks run. SortByKey puts any
// GroupResult in ascending key order.
//
// Inputs are decomposed columns: a group-key column (typically a 1- or
// 2-byte encoded code column over a void head, as in Figure 4) and a
// measure column.
package agg

import (
	"fmt"
	"math"
	"math/bits"

	"monetlite/internal/bat"
	"monetlite/internal/memsim"
	"monetlite/internal/sortx"
)

// GroupResult holds one aggregate row per distinct group key, in
// first-seen order for HashGroup and key-bit order for SortGroup;
// SortByKey puts the rows in the canonical ascending key order in
// place.
type GroupResult struct {
	Key   []int64
	Count []int64
	Sum   []float64
	Min   []float64
	Max   []float64
}

// GroupRowBytes is the footprint of one result row: key, count, sum,
// min and max, 8 bytes each.
const GroupRowBytes = 40

// Groups returns the number of distinct groups.
func (g *GroupResult) Groups() int { return len(g.Key) }

// sortDigitBits caps the digit of one SortByKey pass: its 2^11-entry
// histogram (16 KB) stays L1-resident beside the scatter's cursors.
const sortDigitBits = 11

// SortByKey reorders the rows by ascending key in place and returns
// the number of scatter passes it ran. One scan finds the key range
// and whether the rows are already ascending (then it does nothing).
// Otherwise it is §3.3's radix-cluster on all bits, i.e. an LSD radix
// sort on key−min (unsigned, so negative keys and the int64 extremes
// order correctly): ⌈width/11⌉ passes of equal digits, each a stable
// scatter of whole 40-byte rows between the receiver and one scratch
// result of two blocks (ints 2n, floats 3n). A pass whose digit is the
// same on every key is skipped. After an odd number of passes the
// receiver takes over the scratch columns. Keys are unique, so the
// order is total and the bytes are those of any key sort; an empty
// result gets non-nil zero-length columns.
func (g *GroupResult) SortByKey() int {
	n := len(g.Key)
	if n == 0 {
		*g = GroupResult{Key: []int64{}, Count: []int64{}, Sum: []float64{}, Min: []float64{}, Max: []float64{}}
		return 0
	}
	lo, hi, asc := g.Key[0], g.Key[0], true
	for i, k := range g.Key[1:] {
		asc = asc && k >= g.Key[i]
		lo, hi = min(lo, k), max(hi, k)
	}
	if asc {
		return 0
	}
	width := bits.Len64(uint64(hi) - uint64(lo))
	_, digit := SortPasses(width)
	ints := make([]int64, 2*n)
	fl := make([]float64, 3*n)
	src, dst := *g, GroupResult{Key: ints[:n:n], Count: ints[n:],
		Sum: fl[:n:n], Min: fl[n : 2*n : 2*n], Max: fl[2*n:]}
	ran := 0
	for shift := uint(0); shift < uint(width); shift += uint(digit) {
		if scatterDigit(&src, &dst, uint64(lo), shift, uint(digit)) {
			src, dst = dst, src
			ran++
		}
	}
	*g = src
	return ran
}

// SortPasses returns how many SortByKey scatter passes keys spanning
// width bits (of key−min) take, and the digit bits of each:
// ⌈width/11⌉ passes of equal digits.
func SortPasses(width int) (passes, digit int) {
	if width <= 0 {
		return 0, 0
	}
	passes = (width + sortDigitBits - 1) / sortDigitBits
	return passes, (width + passes - 1) / passes
}

// scatterDigit moves src's rows into dst in stable order of the digit
// of key−base at shift, and reports false (dst untouched) when every
// key has the same digit.
//
//monet:kernel
func scatterDigit(src, dst *GroupResult, base uint64, shift, digit uint) bool {
	var pos [1 << sortDigitBits]int
	mask := uint64(1)<<digit - 1
	keys := src.Key
	n := len(keys)
	for _, k := range keys {
		pos[(uint64(k)-base)>>shift&mask]++
	}
	at := 0
	for d := range pos[:mask+1] {
		c := pos[d]
		if c == n {
			return false
		}
		pos[d] = at
		at += c
	}
	count, sum, mn, mx := src.Count[:n], src.Sum[:n], src.Min[:n], src.Max[:n]
	dk, dc, ds, dmn, dmx := dst.Key[:n], dst.Count[:n], dst.Sum[:n], dst.Min[:n], dst.Max[:n]
	for i, k := range keys {
		d := (uint64(k) - base) >> shift & mask
		j := pos[d]
		pos[d] = j + 1
		dk[j], dc[j], ds[j], dmn[j], dmx[j] = k, count[i], sum[i], mn[i], mx[i]
	}
	return true
}

func validate(keys bat.Vector, measure *bat.F64Vec) error {
	if keys == nil || measure == nil {
		return fmt.Errorf("agg: nil column")
	}
	if keys.Len() != measure.Len() {
		return fmt.Errorf("agg: key column length %d != measure length %d", keys.Len(), measure.Len())
	}
	return nil
}

// foldRows is how many rows HashGroup widens into int64 keys and folds
// at a time: an 8 KB key vector that stays L1-resident.
const foldRows = 1024

// HashGroup aggregates measure per distinct key in one scan with a
// temporary hash table (§3.2), in first-seen order: the input folds a
// vector at a time through a Table that starts small and doubles, so
// its footprint is proportional to the number of groups; while that
// fits L2 (and ideally L1), every aggregate update is a cache hit.
func HashGroup(sim *memsim.Sim, keys bat.Vector, measure *bat.F64Vec) (*GroupResult, error) {
	if err := validate(keys, measure); err != nil {
		return nil, err
	}
	keys.Bind(sim)
	measure.Bind(sim)
	n := keys.Len()
	var t Table
	t.Presize(0, sim)
	kv := make([]int64, min(n, foldRows))
	for lo := 0; lo < n; lo += foldRows {
		k := kv[:min(n-lo, foldRows)]
		for i := range k {
			k[i] = keys.Int(lo + i)
		}
		if sim != nil {
			for i := range k {
				keys.Touch(sim, lo+i)
				measure.Touch(sim, lo+i)
			}
		}
		t.Fold(k, measure.V[lo:lo+len(k)])
	}
	res := t.Compact()
	return &res, nil
}

// SortGroup aggregates by first sorting (radix sort on the key bits)
// and then scanning groups off the sorted run — the sort/merge
// strategy of §3.2, whose sort phase has random access behaviour over
// the entire relation. It sorts 32-bit keys, so a key outside
// [0, 2^32) is an error.
func SortGroup(sim *memsim.Sim, keys bat.Vector, measure *bat.F64Vec) (*GroupResult, error) {
	if err := validate(keys, measure); err != nil {
		return nil, err
	}
	keys.Bind(sim)
	measure.Bind(sim)
	n := keys.Len()
	// Materialize (key, row) pairs and sort them by key bits; the
	// measure is gathered through the row index afterwards — the
	// "sort is done on the entire relation to be grouped" cost.
	pairs := bat.NewPairs(n)
	pairs.Bind(sim)
	var wTuple float64
	if sim != nil {
		wTuple = sim.Machine().Cost.WScanBUN
	}
	for i := 0; i < n; i++ {
		keys.Touch(sim, i)
		if sim != nil {
			sim.Write(pairs.Addr(i), bat.PairSize)
			sim.AddCPU(1, wTuple)
		}
		k := keys.Int(i)
		if uint64(k) > math.MaxUint32 {
			return nil, fmt.Errorf("agg: sort-group key %d outside uint32", k)
		}
		pairs.BUNs[i] = bat.Pair{Head: bat.Oid(i), Tail: uint32(k)}
	}
	sortx.SortPairs(sim, pairs, nil)
	if sim != nil {
		sim.AddCPU(4*n, sim.Machine().Cost.Wc)
	}
	res := &GroupResult{}
	for i := 0; i < n; i++ {
		if sim != nil {
			sim.Read(pairs.Addr(i), bat.PairSize)
			sim.AddCPU(1, wTuple)
		}
		bun := pairs.BUNs[i]
		row := int(bun.Head)
		measure.Touch(sim, row) // random gather through the OID
		v := measure.Float(row)
		k := keys.Int(row)
		if i == 0 || uint32(res.Key[len(res.Key)-1]) != bun.Tail {
			res.Key = append(res.Key, k)
			res.Count = append(res.Count, 0)
			res.Sum = append(res.Sum, 0)
			res.Min = append(res.Min, v)
			res.Max = append(res.Max, v)
		}
		s := len(res.Key) - 1
		res.Count[s]++
		res.Sum[s] += v
		if v < res.Min[s] {
			res.Min[s] = v
		}
		if v > res.Max[s] {
			res.Max[s] = v
		}
	}
	return res, nil
}

package engine

import (
	"math"
	"math/rand/v2"
	"testing"

	"monetlite/internal/agg"
)

// refGroups is the reference grouping: a map from key to result row,
// each key's values folded in input order from count 0, sum 0 and
// min = max = its first value. Rows come in first-seen order within
// partitions taken in order, a key's partition being its low bits
// (bits 0: one partition, plain first-seen order).
func refGroups(keys []int64, vals []float64, bits int) *agg.GroupResult {
	out := &agg.GroupResult{}
	mask := uint64(1)<<bits - 1
	for p := uint64(0); p <= mask; p++ {
		slots := make(map[int64]int)
		for i, k := range keys {
			if uint64(k)&mask != p {
				continue
			}
			v := vals[i]
			s, ok := slots[k]
			if !ok {
				s = len(out.Key)
				slots[k] = s
				out.Key, out.Count = append(out.Key, k), append(out.Count, 0)
				out.Sum, out.Min, out.Max = append(out.Sum, 0), append(out.Min, v), append(out.Max, v)
			}
			out.Count[s]++
			out.Sum[s] += v
			if v < out.Min[s] {
				out.Min[s] = v
			}
			if v > out.Max[s] {
				out.Max[s] = v
			}
		}
	}
	return out
}

// refMerge is the reference partial merge: a map from key to result
// row, filled in (partial, row) order — counts and sums accumulate,
// min/max fold, a new group copies the partial's row.
func refMerge(partials []*agg.GroupResult) *agg.GroupResult {
	slots := make(map[int64]int)
	out := &agg.GroupResult{}
	for _, p := range partials {
		for i, k := range p.Key {
			s, ok := slots[k]
			if !ok {
				slots[k] = len(out.Key)
				out.Key = append(out.Key, k)
				out.Count = append(out.Count, p.Count[i])
				out.Sum = append(out.Sum, p.Sum[i])
				out.Min = append(out.Min, p.Min[i])
				out.Max = append(out.Max, p.Max[i])
				continue
			}
			out.Count[s] += p.Count[i]
			out.Sum[s] += p.Sum[i]
			if p.Min[i] < out.Min[s] {
				out.Min[s] = p.Min[i]
			}
			if p.Max[i] > out.Max[s] {
				out.Max[s] = p.Max[i]
			}
		}
	}
	return out
}

// sameGroups reports whether two results hold the same rows in the
// same order, floats compared bit for bit.
func sameGroups(a, b *agg.GroupResult) bool {
	if a.Groups() != b.Groups() {
		return false
	}
	for i := range a.Key {
		if a.Key[i] != b.Key[i] || a.Count[i] != b.Count[i] ||
			math.Float64bits(a.Sum[i]) != math.Float64bits(b.Sum[i]) ||
			math.Float64bits(a.Min[i]) != math.Float64bits(b.Min[i]) ||
			math.Float64bits(a.Max[i]) != math.Float64bits(b.Max[i]) {
			return false
		}
	}
	return true
}

var (
	fuzzKeys = []int64{math.MinInt64, math.MaxInt64, -1, 0, 1, math.MinInt64 + 1, math.MaxInt64 - 1, -1 << 40}
	fuzzVals = []float64{math.NaN(), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.MaxFloat64, -math.SmallestNonzeroFloat64, 1e300}
)

// fuzzPairs decodes three bytes per (key, value) pair: the first two
// pick a key — a boundary value or one of 65K ints spread over both
// signs — the third a value: a special (NaN, ±0, ±Inf, extremes) or a
// small fraction.
func fuzzPairs(data []byte) ([]int64, []float64) {
	n := len(data) / 3
	keys, vals := make([]int64, n), make([]float64, n)
	for i := range keys {
		k := uint16(data[3*i])<<8 | uint16(data[3*i+1])
		if k < 64 {
			keys[i] = fuzzKeys[k%uint16(len(fuzzKeys))]
		} else {
			keys[i] = int64(int16(k)) * 0x10001
		}
		v := data[3*i+2]
		if v < 32 {
			vals[i] = fuzzVals[v%uint8(len(fuzzVals))]
		} else {
			vals[i] = float64(int8(v)) / 8
		}
	}
	return keys, vals
}

// FuzzAggTable: folding random splits through an agg.Table vector by
// vector, compacting one partial per split and merging the partials
// must equal refGroups per split followed by refMerge, bit for bit and
// in the same first-seen order — with boundary keys, NaN/±0/±Inf
// values and a presize small enough that the table grows. The merge
// must leave the table empty, its slots cleared: folding the whole
// input again must give refGroups over it.
func FuzzAggTable(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 1, 3, 0, 2, 0, 0, 1, 4}, uint8(1), uint64(1))
	f.Add([]byte{0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 1, 2, 0, 0, 5}, uint8(3), uint64(7))
	many := make([]byte, 3*300)
	for i := 0; i < 300; i++ {
		many[3*i], many[3*i+1], many[3*i+2] = byte(i>>8)+1, byte(i), byte(i*7)
	}
	f.Add(many, uint8(2), uint64(3))
	f.Fuzz(func(t *testing.T, data []byte, presize uint8, seed uint64) {
		keys, vals := fuzzPairs(data)
		rng := rand.New(rand.NewPCG(seed, 0))
		var (
			tab      agg.Table
			parts    []agg.GroupResult
			refParts []*agg.GroupResult
		)
		for lo := 0; lo < len(keys) || lo == 0; {
			hi := lo + rng.IntN(len(keys)-lo+1)
			tab.Presize(int(presize%8)+1, nil)
			for v := lo; v < hi; {
				w := min(hi, v+1+rng.IntN(64))
				tab.Fold(keys[v:w], vals[v:w])
				v = w
			}
			part := tab.Compact()
			ref := refGroups(keys[lo:hi], vals[lo:hi], 0)
			if !sameGroups(&part, ref) {
				t.Fatalf("split [%d,%d): partial %+v != reference %+v", lo, hi, part, ref)
			}
			parts, refParts = append(parts, part), append(refParts, ref)
			if hi == len(keys) {
				break
			}
			lo = hi
		}
		got := tab.Merge(parts, nil)
		if want := refMerge(refParts); !sameGroups(&got, want) {
			t.Fatalf("merged %+v != reference %+v", got, want)
		}
		tab.Fold(keys, vals)
		if again, want := tab.Compact(), refGroups(keys, vals, 0); !sameGroups(&again, want) {
			t.Fatalf("refold after merge %+v != reference %+v: the merge left groups or slots behind", again, want)
		}
	})
}

// fuzzExpr decodes a bound measure tree: every byte picks a node — an
// operator (+ - * /) over two subtrees, an operand column or a
// constant (a special value or a small fraction) — until the bytes or
// the depth run out.
func fuzzExpr(data []byte, at *int, depth, nops int) Expr {
	if *at >= len(data) {
		return boundExpr{idx: 0}
	}
	b := data[*at]
	*at++
	switch {
	case b < 128 && depth < 6:
		l := fuzzExpr(data, at, depth+1, nops)
		r := fuzzExpr(data, at, depth+1, nops)
		return BinExpr{Op: "+-*/"[b%4], L: l, R: r}
	case b < 200:
		return boundExpr{idx: int(b) % nops}
	case b < 216:
		return ConstExpr{V: fuzzVals[int(b)%len(fuzzVals)]}
	default:
		return ConstExpr{V: float64(int(b)-236) / 4}
	}
}

// scalarEval is the row-at-a-time reference for a bound measure.
func scalarEval(e Expr, ops [][]float64, i int) float64 {
	switch x := e.(type) {
	case boundExpr:
		return ops[x.idx][i]
	case ConstExpr:
		return x.V
	case BinExpr:
		return scalarOp(x.Op, scalarEval(x.L, ops, i), scalarEval(x.R, ops, i))
	}
	panic("unbound expression")
}

// FuzzEvalVec: evaluating a random + - * / tree a vector at a time
// must equal the scalar reference bit for bit on every row (division
// by zero, NaN and infinities included) and leave the operands as they
// were.
func FuzzEvalVec(f *testing.F) {
	f.Add([]byte{0, 130, 201, 3, 131, 132}, []byte{1, 2, 3, 0, 200, 17, 4, 9})
	f.Add([]byte{3, 133, 2, 204, 130}, []byte{0, 0, 0, 255, 128, 7})
	f.Fuzz(func(t *testing.T, tree, cols []byte) {
		const nops = 3
		n := len(cols) / nops
		ops := make([][]float64, nops)
		for c := range ops {
			ops[c] = make([]float64, n)
			for i := range ops[c] {
				v := cols[c*n+i]
				if v < 48 {
					ops[c][i] = fuzzVals[int(v)%len(fuzzVals)]
				} else {
					ops[c][i] = float64(int8(v)) / 16
				}
			}
		}
		at := 0
		e := fuzzExpr(tree, &at, 0, nops)
		before := make([][]float64, nops)
		for c := range ops {
			before[c] = append([]float64(nil), ops[c]...)
		}
		tmp := make([][]float64, exprTemps(e))
		for d := range tmp {
			tmp[d] = make([]float64, n)
		}
		got := evalVec(e, ops, tmp, n, 0)
		if len(got) != n {
			t.Fatalf("%v: %d values for %d rows", e, len(got), n)
		}
		for i := 0; i < n; i++ {
			if want := scalarEval(e, before, i); math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("%v row %d: evalVec %v, scalar %v", e, i, got[i], want)
			}
		}
		for c := range ops {
			for i := range ops[c] {
				if math.Float64bits(ops[c][i]) != math.Float64bits(before[c][i]) {
					t.Fatalf("%v overwrote operand %d row %d", e, c, i)
				}
			}
		}
	})
}

// TestAggKernelsDoNotAllocate: a warm agg.Table folds a vector — into
// existing groups, or into new ones after draining into a buffer that
// has room — and evalVec evaluates a measure with no allocation.
func TestAggKernelsDoNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const n = 4096
	keys, vals := make([]int64, n), make([]float64, n)
	for i := range keys {
		keys[i], vals[i] = int64(i*7919%100), float64(i)/3
	}
	var tab agg.Table
	tab.Presize(100, nil)
	tab.Fold(keys, vals)
	if a := testing.AllocsPerRun(20, func() { tab.Fold(keys, vals) }); a != 0 {
		t.Errorf("fold into existing groups: %.1f allocs per vector", a)
	}
	var buf agg.GroupResult
	buf.Reserve(100)
	drain := func() {
		buf.Key, buf.Count, buf.Sum, buf.Min, buf.Max = buf.Key[:0], buf.Count[:0], buf.Sum[:0], buf.Min[:0], buf.Max[:0]
		tab.Drain(&buf)
	}
	if a := testing.AllocsPerRun(20, func() { drain(); tab.Fold(keys, vals) }); a != 0 {
		t.Errorf("fold into fresh groups: %.1f allocs per vector", a)
	}

	revenue := BinExpr{Op: '*', L: boundExpr{idx: 0},
		R: BinExpr{Op: '-', L: ConstExpr{V: 1}, R: boundExpr{idx: 1}}}
	if got := exprTemps(revenue); got != 1 {
		t.Errorf("price * (1 - discnt) takes %d temporaries, want 1", got)
	}
	ops := [][]float64{vals, vals}
	tmp := make([][]float64, exprTemps(revenue))
	for d := range tmp {
		tmp[d] = make([]float64, n)
	}
	if a := testing.AllocsPerRun(20, func() { evalVec(revenue, ops, tmp, n, 0) }); a != 0 {
		t.Errorf("evalVec: %.1f allocs per vector", a)
	}
}

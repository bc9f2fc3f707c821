package engine

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"monetlite/internal/bat"
	"monetlite/internal/dsm"
	"monetlite/internal/workload"
)

// The property test: random Select/Join/GroupAggregate plans over the
// Figure-4 Item workload, cross-checked against a row-at-a-time
// oracle computed straight from the generated structs — the engine's
// BAT-algebra plans and the naive tuple loop must agree exactly.

// oracleRow is one joined tuple of the oracle's row-at-a-time world.
type oracleRow struct {
	item workload.Item
	part workload.Part // zero unless the plan joins
}

// randPred draws a random predicate with its oracle counterpart.
func randPred(rng *workload.RNG) (Predicate, func(workload.Item) bool) {
	switch rng.Intn(5) {
	case 0:
		lo := int64(1 + rng.Intn(40))
		hi := lo + int64(rng.Intn(15))
		return RangePred{Col: "qty", Lo: lo, Hi: hi},
			func(it workload.Item) bool { return int64(it.Qty) >= lo && int64(it.Qty) <= hi }
	case 1:
		lo := int64(8000 + rng.Intn(2000))
		hi := lo + int64(rng.Intn(1200))
		return RangePred{Col: "date1", Lo: lo, Hi: hi},
			func(it workload.Item) bool { return int64(it.Date1) >= lo && int64(it.Date1) <= hi }
	case 2:
		// Point-like range on the near-unique order column: exercises
		// the CSS-tree access path.
		lo := int64(1000 + rng.Intn(4000))
		hi := lo + int64(rng.Intn(64))
		return RangePred{Col: "order", Lo: lo, Hi: hi},
			func(it workload.Item) bool { return int64(it.Order) >= lo && int64(it.Order) <= hi }
	case 3:
		v := workload.ShipModes[rng.Intn(len(workload.ShipModes))]
		return EqStringPred{Col: "shipmode", Value: v},
			func(it workload.Item) bool { return it.ShipMode == v }
	default:
		v := workload.Statuses[rng.Intn(len(workload.Statuses))]
		return EqStringPred{Col: "status", Value: v},
			func(it workload.Item) bool { return it.Status == v }
	}
}

// randMeasure draws a random measure expression with its oracle.
func randMeasure(rng *workload.RNG, joined bool) (Expr, func(oracleRow) float64) {
	switch n := rng.Intn(4); {
	case n == 0:
		return ColExpr{Name: "price"}, func(r oracleRow) float64 { return r.item.Price }
	case n == 1:
		return BinExpr{Op: '*', L: ColExpr{Name: "price"},
				R: BinExpr{Op: '-', L: ConstExpr{V: 1}, R: ColExpr{Name: "discnt"}}},
			func(r oracleRow) float64 { return r.item.Price * (1 - r.item.Discnt) }
	case n == 2:
		return BinExpr{Op: '*', L: ColExpr{Name: "price"}, R: ColExpr{Name: "qty"}},
			func(r oracleRow) float64 { return r.item.Price * float64(r.item.Qty) }
	case joined:
		return BinExpr{Op: '-', L: ColExpr{Name: "retail"}, R: ColExpr{Name: "price"}},
			func(r oracleRow) float64 { return r.part.Retail - r.item.Price }
	default:
		return BinExpr{Op: '+', L: ColExpr{Name: "tax"}, R: ColExpr{Name: "discnt"}},
			func(r oracleRow) float64 { return r.item.Tax + r.item.Discnt }
	}
}

// randKey draws a random group key with its oracle.
func randKey(rng *workload.RNG, joined bool) (string, func(oracleRow) string) {
	switch n := rng.Intn(3); {
	case n == 0:
		return "shipmode", func(r oracleRow) string { return r.item.ShipMode }
	case n == 1 && joined:
		return "category", func(r oracleRow) string { return r.part.Category }
	default:
		return "status", func(r oracleRow) string { return r.item.Status }
	}
}

func TestRandomPlansMatchRowOracle(t *testing.T) {
	const nItems = 4096
	const nParts = 2000
	const rounds = 60

	items := workload.Items(nItems, 42)
	parts := workload.Parts(nParts, 7)
	itemTbl := itemTable(t, nItems) // same seed 42: identical rows
	partTbl := partTable(t, nParts) // same seed 7

	rng := workload.NewRNG(0xE17)
	for round := 0; round < rounds; round++ {
		// Random plan: 0–2 selects, optional join, group-aggregate.
		var node Node = &ScanNode{Table: itemTbl}
		var preds []func(workload.Item) bool
		for i := rng.Intn(3); i > 0; i-- {
			p, oracle := randPred(rng)
			node = &SelectNode{Input: node, Pred: p}
			preds = append(preds, oracle)
		}
		joined := rng.Intn(2) == 1
		if joined {
			node = &JoinNode{Left: node, Right: &ScanNode{Table: partTbl},
				LeftCol: "part", RightCol: "id"}
		}
		key, keyOracle := randKey(rng, joined)
		measure, measOracle := randMeasure(rng, joined)
		node = &GroupAggNode{Input: node, Key: key, Measure: measure}

		// Joined rounds alternate the join's two lowerings: a
		// HashProbe stage and (breakerMachine) a Join breaker.
		jl := joinLowerings[0]
		if joined {
			jl = joinLowerings[round%2]
		}
		plan, err := Plan(node, jl.cfg)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if joined && !strings.Contains(plan.Explain(), jl.mark) {
			t.Fatalf("round %d: plan lacks %s:\n%s", round, jl.mark, plan.Explain())
		}
		res, err := plan.Run(nil)
		if err != nil {
			t.Fatalf("round %d: %v\n%s", round, err, plan.Explain())
		}

		// Row-at-a-time oracle.
		type aggState struct {
			count       int64
			sum, mn, mx float64
		}
		want := map[string]*aggState{}
		for _, it := range items {
			ok := true
			for _, p := range preds {
				if !p(it) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			row := oracleRow{item: it}
			if joined {
				pid := int(it.Part)
				if pid >= nParts {
					continue // no matching part
				}
				row.part = parts[pid]
			}
			k := keyOracle(row)
			v := measOracle(row)
			st := want[k]
			if st == nil {
				st = &aggState{mn: v, mx: v}
				want[k] = st
			}
			st.count++
			st.sum += v
			if v < st.mn {
				st.mn = v
			}
			if v > st.mx {
				st.mx = v
			}
		}

		keys, err := res.Strings(key)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		counts, _ := res.Ints("count")
		sums, _ := res.Floats("sum")
		mins, _ := res.Floats("min")
		maxs, _ := res.Floats("max")
		if len(keys) != len(want) {
			t.Fatalf("round %d: %d groups, oracle %d\n%s", round, len(keys), len(want), plan.Explain())
		}
		for i, k := range keys {
			st := want[k]
			if st == nil {
				t.Fatalf("round %d: spurious group %q", round, k)
			}
			if counts[i] != st.count {
				t.Errorf("round %d group %q: count %d, oracle %d", round, k, counts[i], st.count)
			}
			if !approx(sums[i], st.sum) || !approx(mins[i], st.mn) || !approx(maxs[i], st.mx) {
				t.Errorf("round %d group %q: (sum %g min %g max %g), oracle (%g %g %g)",
					round, k, sums[i], mins[i], maxs[i], st.sum, st.mn, st.mx)
			}
		}
	}
}

// approx compares float aggregates with a relative tolerance that
// absorbs summation-order differences.
func approx(a, b float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	return d <= 1e-9*(math.Abs(a)+math.Abs(b)+1)
}

// ---------------------------------------------------------------------
// A row-at-a-time oracle over any logical plan: it interprets the DAG
// tuple by tuple straight from the decomposed columns — nested-loop
// joins, a map per GroupAggregate, stable sorts — sharing nothing with
// the planner or the executor.

// oracleResult is the oracle's answer. Rows are in a defined order
// only when ordered is set (joins emit in algorithm-specific order);
// after a Limit over an unordered input, the engine may return any
// limit rows of the oracle's, so limit records the cut.
type oracleResult struct {
	cols    []string
	rows    [][]any
	ordered bool
	limit   int // -1: rows are the full answer

	tables []*dsm.Table // table-backed form: rows are positions
}

// oracleCell reads column c at storage position p as the value the
// engine's Rel would hold.
func oracleCell(c *dsm.Column, p int) any {
	switch {
	case c.Enc != nil:
		return c.Enc.Decode(c.Vec.Int(p))
	case c.Def.Type == dsm.LString:
		return c.Vec.(*bat.StrVec).Str(p)
	case c.Def.Type == dsm.LFloat:
		return c.Vec.(*bat.F64Vec).Float(p)
	}
	return c.Vec.Int(p)
}

// column resolves a (possibly table-qualified) name among the bound
// tables, like the planner's rule: qualified picks the first table of
// that name, unqualified must be unique.
func (r *oracleResult) column(t *testing.T, name string) (int, *dsm.Column) {
	t.Helper()
	if tbl, col, ok := strings.Cut(name, "."); ok {
		for i, tb := range r.tables {
			if tb.Schema.Name == tbl {
				c, err := tb.Column(col)
				if err != nil {
					t.Fatal(err)
				}
				return i, c
			}
		}
		t.Fatalf("oracle: no table %q", tbl)
	}
	for i, tb := range r.tables {
		if c, err := tb.Column(name); err == nil {
			return i, c
		}
	}
	t.Fatalf("oracle: no column %q", name)
	return 0, nil
}

func (r *oracleResult) matIndex(t *testing.T, name string) int {
	t.Helper()
	for i, c := range r.cols {
		if c == name {
			return i
		}
	}
	t.Fatalf("oracle: no materialized column %q", name)
	return 0
}

// value reads a named value of row i, table-backed or materialized.
func (r *oracleResult) value(t *testing.T, i int, name string) any {
	if r.tables == nil {
		return r.rows[i][r.matIndex(t, name)]
	}
	bi, c := r.column(t, name)
	return oracleCell(c, r.rows[i][bi].(int))
}

func oracleEval(t *testing.T, n Node) *oracleResult {
	t.Helper()
	switch x := n.(type) {
	case *ScanNode:
		r := &oracleResult{tables: []*dsm.Table{x.Table}, ordered: true, limit: -1}
		for p := 0; p < x.Table.N; p++ {
			r.rows = append(r.rows, []any{p})
		}
		return r
	case *SelectNode:
		in := oracleEval(t, x.Input)
		out := *in
		out.rows = nil
		for i := range in.rows {
			keep := false
			switch p := x.Pred.(type) {
			case RangePred:
				v := in.value(t, i, p.Col).(int64)
				keep = v >= p.Lo && v <= p.Hi
			case EqStringPred:
				keep = in.value(t, i, p.Col).(string) == p.Value
			}
			if keep {
				out.rows = append(out.rows, in.rows[i])
			}
		}
		return &out
	case *JoinNode:
		l, r := oracleEval(t, x.Left), oracleEval(t, x.Right)
		out := &oracleResult{tables: append(append([]*dsm.Table{}, l.tables...), r.tables...), limit: -1}
		matches := map[any][]int{}
		for j := range r.rows {
			v := r.value(t, j, x.RightCol)
			matches[v] = append(matches[v], j)
		}
		for i := range l.rows {
			for _, j := range matches[l.value(t, i, x.LeftCol)] {
				out.rows = append(out.rows, append(append([]any{}, l.rows[i]...), r.rows[j]...))
			}
		}
		return out
	case *ProjectNode:
		in := oracleEval(t, x.Input)
		return in.project(t, x.Cols, x.Cols)
	case *GroupAggNode:
		in := oracleEval(t, x.Input)
		type state struct {
			key         any
			count       int64
			sum, mn, mx float64
		}
		groups := map[any]*state{}
		for i := range in.rows {
			k := in.value(t, i, x.Key)
			v := oracleMeasure(t, in, i, x.Measure)
			st := groups[k]
			if st == nil {
				st = &state{key: k, mn: v, mx: v}
				groups[k] = st
			}
			st.count++
			st.sum += v
			st.mn = math.Min(st.mn, v)
			st.mx = math.Max(st.mx, v)
		}
		out := &oracleResult{cols: []string{x.Key, "count", "sum", "min", "max"}, ordered: true, limit: -1}
		for _, st := range groups {
			out.rows = append(out.rows, []any{st.key, st.count, st.sum, st.mn, st.mx})
		}
		sort.Slice(out.rows, func(a, b int) bool { return oracleLess(out.rows[a][0], out.rows[b][0]) })
		return out
	case *OrderByNode:
		in := oracleEval(t, x.Input)
		out := *in
		out.rows = append([][]any{}, in.rows...)
		keys := make([]any, len(in.rows))
		for i := range keys {
			keys[i] = in.value(t, i, x.Col)
		}
		idx := make([]int, len(keys))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool {
			if x.Desc {
				return oracleLess(keys[idx[b]], keys[idx[a]])
			}
			return oracleLess(keys[idx[a]], keys[idx[b]])
		})
		for i, j := range idx {
			out.rows[i] = in.rows[j]
		}
		return &out
	case *LimitNode:
		in := oracleEval(t, x.Input)
		out := *in
		switch {
		case !in.ordered:
			out.limit = x.N
		case x.N < len(in.rows):
			out.rows = in.rows[:x.N]
		}
		return &out
	}
	t.Fatalf("oracle: unknown node %T", n)
	return nil
}

// project materializes the named columns under the given output names.
func (r *oracleResult) project(t *testing.T, names, as []string) *oracleResult {
	t.Helper()
	out := &oracleResult{cols: as, ordered: r.ordered, limit: r.limit}
	for i := range r.rows {
		row := make([]any, len(names))
		for ci, name := range names {
			row[ci] = r.value(t, i, name)
		}
		out.rows = append(out.rows, row)
	}
	return out
}

// oracleResultOf evaluates a plan and, for a table-backed root, applies
// the engine's default projection: every column of every bound table,
// table-qualified on name collisions.
func oracleResultOf(t *testing.T, root Node) *oracleResult {
	t.Helper()
	r := oracleEval(t, root)
	if r.tables == nil {
		return r
	}
	count := map[string]int{}
	for _, tb := range r.tables {
		for _, cd := range tb.Schema.Cols {
			count[cd.Name]++
		}
	}
	out := &oracleResult{ordered: r.ordered, limit: r.limit}
	for i := range r.rows {
		var row []any
		for bi, tb := range r.tables {
			for _, c := range tb.Columns() {
				row = append(row, oracleCell(c, r.rows[i][bi].(int)))
			}
		}
		out.rows = append(out.rows, row)
	}
	for _, tb := range r.tables {
		for _, cd := range tb.Schema.Cols {
			name := cd.Name
			if count[name] > 1 {
				name = tb.Schema.Name + "." + name
			}
			out.cols = append(out.cols, name)
		}
	}
	return out
}

func oracleMeasure(t *testing.T, r *oracleResult, i int, e Expr) float64 {
	switch x := e.(type) {
	case ColExpr:
		switch v := r.value(t, i, x.Name).(type) {
		case int64:
			return float64(v)
		case float64:
			return v
		}
		t.Fatalf("oracle: measure column %q is not numeric", x.Name)
	case ConstExpr:
		return x.V
	case BinExpr:
		return scalarOp(x.Op, oracleMeasure(t, r, i, x.L), oracleMeasure(t, r, i, x.R))
	}
	t.Fatalf("oracle: unknown expression %T", e)
	return 0
}

// scalarOp applies one measure operator to one pair of values — the
// row-at-a-time reference evalVec must agree with bitwise.
func scalarOp(op byte, l, r float64) float64 {
	switch op {
	case '+':
		return l + r
	case '-':
		return l - r
	case '*':
		return l * r
	case '/':
		return l / r
	}
	panic(fmt.Sprintf("unknown operator %q", op))
}

func oracleLess(a, b any) bool {
	switch a := a.(type) {
	case int64:
		return a < b.(int64)
	case float64:
		return a < b.(float64)
	}
	return a.(string) < b.(string)
}

// checkOracle requires an engine result to be the oracle's answer:
// same columns; the same rows, in order where the oracle defines one
// and as a multiset otherwise; float sums to association order.
func checkOracle(t *testing.T, name string, root Node, got *Rel) {
	t.Helper()
	want := oracleResultOf(t, root)
	res := &Result{Rel: got}
	if cols := res.Columns(); !reflect.DeepEqual(cols, want.cols) {
		t.Errorf("%s: columns %v, oracle %v", name, cols, want.cols)
		return
	}
	rows := make([][]any, got.N)
	for i := range rows {
		rows[i] = res.Row(i)
	}
	sumCol := -1
	if len(want.cols) == 5 && want.cols[2] == "sum" {
		sumCol = 2
	}
	same := func(a, b []any) bool {
		for c := range a {
			if c == sumCol {
				if !approx(a[c].(float64), b[c].(float64)) {
					return false
				}
			} else if a[c] != b[c] {
				return false
			}
		}
		return true
	}
	if want.limit >= 0 {
		if n := min(want.limit, len(want.rows)); len(rows) != n {
			t.Errorf("%s: %d rows under Limit %d, oracle has %d", name, len(rows), want.limit, len(want.rows))
			return
		}
		left := map[string]int{}
		for _, w := range want.rows {
			left[fmt.Sprint(w)]++
		}
		for i, r := range rows {
			if left[fmt.Sprint(r)]--; left[fmt.Sprint(r)] < 0 {
				t.Errorf("%s: row %d %v is not an oracle row", name, i, r)
				return
			}
		}
		return
	}
	if len(rows) != len(want.rows) {
		t.Errorf("%s: %d rows, oracle %d", name, len(rows), len(want.rows))
		return
	}
	wantRows := want.rows
	if !want.ordered {
		byText := func(rs [][]any) [][]any {
			rs = append([][]any{}, rs...)
			sort.Slice(rs, func(a, b int) bool { return fmt.Sprint(rs[a]) < fmt.Sprint(rs[b]) })
			return rs
		}
		rows, wantRows = byText(rows), byText(want.rows)
	}
	for i := range rows {
		if !same(rows[i], wantRows[i]) {
			t.Errorf("%s: row %d is %v, oracle %v", name, i, rows[i], wantRows[i])
			return
		}
	}
}

// TestSelectedRowsMatchOracle cross-checks plain (non-aggregated)
// select plans: the projected rows must equal the oracle's qualifying
// tuples in storage order.
func TestSelectedRowsMatchOracle(t *testing.T) {
	const n = 4096
	items := workload.Items(n, 42)
	tbl := itemTable(t, n)
	rng := workload.NewRNG(0x5E1)
	for round := 0; round < 40; round++ {
		var node Node = &ScanNode{Table: tbl}
		var preds []func(workload.Item) bool
		for i := 1 + rng.Intn(2); i > 0; i-- {
			p, oracle := randPred(rng)
			node = &SelectNode{Input: node, Pred: p}
			preds = append(preds, oracle)
		}
		node = &ProjectNode{Input: node, Cols: []string{"order", "price", "shipmode"}}
		plan, err := Plan(node, Config{})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		res, err := plan.Run(nil)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		orders, _ := res.Ints("order")
		prices, _ := res.Floats("price")
		modes, _ := res.Strings("shipmode")

		i := 0
		for _, it := range items {
			ok := true
			for _, p := range preds {
				if !p(it) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			if i >= res.N() {
				t.Fatalf("round %d: engine returned %d rows, oracle has more", round, res.N())
			}
			if orders[i] != int64(it.Order) || prices[i] != it.Price || modes[i] != it.ShipMode {
				t.Fatalf("round %d row %d: engine (%d, %g, %s), oracle (%d, %g, %s)",
					round, i, orders[i], prices[i], modes[i], it.Order, it.Price, it.ShipMode)
			}
			i++
		}
		if i != res.N() {
			t.Fatalf("round %d: engine returned %d rows, oracle %d", round, res.N(), i)
		}
	}
}

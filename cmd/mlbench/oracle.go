package main

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"monetlite"
	"monetlite/internal/workload"
)

// The oracle evaluates a querySpec row at a time over the generated
// workload.Item / workload.Part rows. It shares nothing with the engine but
// the spec, so an engine change cannot make both sides wrong the same way.

// column is one result column; exactly one of the slices is set.
type column struct {
	name   string
	ints   []int64
	floats []float64
	strs   []string
}

// relation is a materialized result in column order.
type relation struct {
	cols []column
	n    int
}

func itemInt(col string) func(*workload.Item) int64 {
	switch col {
	case "order":
		return func(it *workload.Item) int64 { return int64(it.Order) }
	case "part":
		return func(it *workload.Item) int64 { return int64(it.Part) }
	case "supp":
		return func(it *workload.Item) int64 { return int64(it.Supp) }
	case "cust":
		return func(it *workload.Item) int64 { return int64(it.Cust) }
	case "qty":
		return func(it *workload.Item) int64 { return int64(it.Qty) }
	case "date1":
		return func(it *workload.Item) int64 { return int64(it.Date1) }
	case "date2":
		return func(it *workload.Item) int64 { return int64(it.Date2) }
	}
	return nil
}

func itemStr(col string) func(*workload.Item) string {
	switch col {
	case "shipmode":
		return func(it *workload.Item) string { return it.ShipMode }
	case "status":
		return func(it *workload.Item) string { return it.Status }
	}
	return nil
}

// joined is one row surviving the filters and the join.
type joined struct {
	it   *workload.Item
	part *workload.Part // nil without a join
}

type groupKey struct {
	skey string
	ikey int64
}

type aggRow struct {
	groupKey
	count         int64
	sum, min, max float64
}

// oracle computes the expected result of q.
func (e *env) oracle(q querySpec) (relation, error) {
	// Select.
	type pred func(*workload.Item) bool
	var preds []pred
	for _, f := range q.filters {
		f := f
		if f.str != "" {
			get := itemStr(f.col)
			if get == nil {
				return relation{}, fmt.Errorf("oracle: no string column %q", f.col)
			}
			preds = append(preds, func(it *workload.Item) bool { return get(it) == f.str })
		} else {
			get := itemInt(f.col)
			if get == nil {
				return relation{}, fmt.Errorf("oracle: no integer column %q", f.col)
			}
			preds = append(preds, func(it *workload.Item) bool { v := get(it); return v >= f.lo && v <= f.hi })
		}
	}
	// Join: an id → row map built by one loop over the parts, probed per item.
	var parts map[int32]*workload.Part
	var joinKey func(*workload.Item) int64
	if q.joinCol != "" {
		rows := e.partSmallRows
		if q.joinLarge {
			rows = e.partLargeRows
		}
		parts = make(map[int32]*workload.Part, len(rows))
		for i := range rows {
			parts[rows[i].Id] = &rows[i]
		}
		if joinKey = itemInt(q.joinCol); joinKey == nil {
			return relation{}, fmt.Errorf("oracle: no join column %q", q.joinCol)
		}
	}
	var rows []joined
items:
	for i := range e.items {
		it := &e.items[i]
		for _, p := range preds {
			if !p(it) {
				continue items
			}
		}
		j := joined{it: it}
		if parts != nil {
			if j.part = parts[int32(joinKey(it))]; j.part == nil {
				continue
			}
		}
		rows = append(rows, j)
	}

	var rel relation
	switch {
	case q.groupBy != "":
		var err error
		if rel, err = groupRows(rows, q); err != nil {
			return relation{}, err
		}
	case len(q.project) > 0:
		rel.n = len(rows)
		for _, name := range q.project {
			c := column{name: name}
			switch {
			case name == "price":
				c.floats = make([]float64, len(rows))
				for i, r := range rows {
					c.floats[i] = r.it.Price
				}
			case itemInt(name) != nil:
				get := itemInt(name)
				c.ints = make([]int64, len(rows))
				for i, r := range rows {
					c.ints[i] = get(r.it)
				}
			case itemStr(name) != nil:
				get := itemStr(name)
				c.strs = make([]string, len(rows))
				for i, r := range rows {
					c.strs[i] = get(r.it)
				}
			default:
				return relation{}, fmt.Errorf("oracle: cannot project %q", name)
			}
			rel.cols = append(rel.cols, c)
		}
	default:
		return relation{}, fmt.Errorf("oracle: spec has neither group-by nor projection")
	}
	if q.limit > 0 && rel.n > q.limit {
		first := make([]int, q.limit)
		for i := range first {
			first[i] = i
		}
		rel = rel.take(first)
	}
	return rel, nil
}

// groupRows aggregates in row order, then orders the groups by key (or by
// sum, descending, under ORDER BY sum).
func groupRows(rows []joined, q querySpec) (relation, error) {
	var value func(joined) float64
	switch q.measure {
	case revenue:
		value = func(r joined) float64 { return r.it.Price * (1 - r.it.Discnt) }
	case priceQty:
		value = func(r joined) float64 { return r.it.Price * float64(r.it.Qty) }
	case margin:
		value = func(r joined) float64 { return r.part.Retail - r.it.Price }
	}
	if q.measure == margin && q.joinCol == "" {
		return relation{}, fmt.Errorf("oracle: margin needs a join")
	}
	// One key function for both key types: string keys leave ikey zero,
	// integer keys leave skey empty.
	var keyOf func(joined) groupKey
	stringKey := true
	if q.groupBy == "category" {
		keyOf = func(r joined) groupKey { return groupKey{skey: r.part.Category} }
	} else if get := itemStr(q.groupBy); get != nil {
		keyOf = func(r joined) groupKey { return groupKey{skey: get(r.it)} }
	} else if get := itemInt(q.groupBy); get != nil {
		stringKey = false
		keyOf = func(r joined) groupKey { return groupKey{ikey: get(r.it)} }
	} else {
		return relation{}, fmt.Errorf("oracle: cannot group by %q", q.groupBy)
	}
	var groups []*aggRow
	byKey := map[groupKey]*aggRow{}
	for _, r := range rows {
		k, v := keyOf(r), value(r)
		g := byKey[k]
		if g == nil {
			g = &aggRow{groupKey: k, min: v, max: v}
			byKey[k] = g
			groups = append(groups, g)
		}
		g.count++
		g.sum += v
		g.min, g.max = min(g.min, v), max(g.max, v)
	}
	if q.orderSum {
		slices.SortStableFunc(groups, func(a, b *aggRow) int { return cmp.Compare(b.sum, a.sum) })
	} else {
		slices.SortFunc(groups, func(a, b *aggRow) int {
			if c := cmp.Compare(a.skey, b.skey); c != 0 {
				return c
			}
			return cmp.Compare(a.ikey, b.ikey)
		})
	}
	n := len(groups)
	key := column{name: q.groupBy}
	count := column{name: "count", ints: make([]int64, n)}
	sum := column{name: "sum", floats: make([]float64, n)}
	lo := column{name: "min", floats: make([]float64, n)}
	hi := column{name: "max", floats: make([]float64, n)}
	if stringKey {
		key.strs = make([]string, n)
	} else {
		key.ints = make([]int64, n)
	}
	for i, g := range groups {
		if stringKey {
			key.strs[i] = g.skey
		} else {
			key.ints[i] = g.ikey
		}
		count.ints[i], sum.floats[i], lo.floats[i], hi.floats[i] = g.count, g.sum, g.min, g.max
	}
	return relation{cols: []column{key, count, sum, lo, hi}, n: n}, nil
}

// take returns the rows of r at the given indexes, in that order.
func (r relation) take(idx []int) relation {
	out := relation{n: len(idx)}
	for _, c := range r.cols {
		p := column{name: c.name}
		switch {
		case c.ints != nil:
			p.ints = make([]int64, len(idx))
			for i, j := range idx {
				p.ints[i] = c.ints[j]
			}
		case c.floats != nil:
			p.floats = make([]float64, len(idx))
			for i, j := range idx {
				p.floats[i] = c.floats[j]
			}
		default:
			p.strs = make([]string, len(idx))
			for i, j := range idx {
				p.strs[i] = c.strs[j]
			}
		}
		out.cols = append(out.cols, p)
	}
	return out
}

// fromResult views an engine result as a relation (no copies).
func fromResult(res *monetlite.QueryResult) (relation, error) {
	rel := relation{n: res.N()}
	for _, name := range res.Columns() {
		c := column{name: name}
		if v, err := res.Ints(name); err == nil {
			c.ints = v
		} else if v, err := res.Floats(name); err == nil {
			c.floats = v
		} else if v, err := res.Strings(name); err == nil {
			c.strs = v
		} else {
			return relation{}, fmt.Errorf("result column %q has no readable type", name)
		}
		rel.cols = append(rel.cols, c)
	}
	return rel, nil
}

// sortedByKey returns r with rows ordered by its first column; the engine's
// group order is an implementation choice the oracle does not pin.
func (r relation) sortedByKey() relation {
	if r.n == 0 || len(r.cols) == 0 || r.cols[0].floats != nil {
		return r
	}
	key := r.cols[0]
	less := func(a, b int) int {
		if key.ints != nil {
			return cmp.Compare(key.ints[a], key.ints[b])
		}
		return cmp.Compare(key.strs[a], key.strs[b])
	}
	perm := make([]int, r.n)
	sorted := true
	for i := range perm {
		perm[i] = i
		if i > 0 && less(i-1, i) > 0 {
			sorted = false
		}
	}
	if sorted {
		return r
	}
	slices.SortFunc(perm, less)
	return r.take(perm)
}

// sumTolerance is the relative error allowed on float sums, whose
// association order differs between the engine's morsels and a row loop.
const sumTolerance = 1e-9

// diff reports the first difference between the expected and the engine's
// relation, or "" when they agree: row count, keys, counts, min and max
// exact, sums within sumTolerance.
func diff(want, got relation, q querySpec) string {
	if q.groupBy != "" && !q.orderSum {
		got = got.sortedByKey()
	}
	if want.n != got.n {
		return fmt.Sprintf("row count: want %d, got %d", want.n, got.n)
	}
	if len(want.cols) != len(got.cols) {
		return fmt.Sprintf("column count: want %d, got %d", len(want.cols), len(got.cols))
	}
	for ci, w := range want.cols {
		g := got.cols[ci]
		if w.name != g.name {
			return fmt.Sprintf("column %d: want name %q, got %q", ci, w.name, g.name)
		}
		if (w.ints == nil) != (g.ints == nil) || (w.floats == nil) != (g.floats == nil) {
			return fmt.Sprintf("column %q: type differs", w.name)
		}
	}
	for i := 0; i < want.n; i++ {
		for ci, w := range want.cols {
			g := got.cols[ci]
			ok := true
			switch {
			case w.ints != nil:
				ok = w.ints[i] == g.ints[i]
			case w.strs != nil:
				ok = w.strs[i] == g.strs[i]
			case w.name == "sum":
				a, b := w.floats[i], g.floats[i]
				ok = math.Abs(a-b) <= sumTolerance*math.Max(math.Abs(a), math.Abs(b))
			default:
				ok = w.floats[i] == g.floats[i]
			}
			if !ok {
				return fmt.Sprintf("row %d column %q: want %s, got %s", i, w.name, want.row(i), got.row(i))
			}
		}
	}
	return ""
}

func (r relation) row(i int) string {
	s := "("
	for ci, c := range r.cols {
		if ci > 0 {
			s += ", "
		}
		switch {
		case c.ints != nil:
			s += fmt.Sprint(c.ints[i])
		case c.floats != nil:
			s += fmt.Sprintf("%.17g", c.floats[i])
		default:
			s += fmt.Sprintf("%q", c.strs[i])
		}
	}
	return s + ")"
}

// hashResult folds every bit of a result, in the engine's own row order,
// into 64 bits. A repeated parameter set must hash identically to its first
// (oracle-checked) run: the engine's determinism contract.
func hashResult(res *monetlite.QueryResult) (uint64, error) {
	rel, err := fromResult(res)
	if err != nil {
		return 0, err
	}
	const prime = 0x100000001b3
	h := uint64(0xcbf29ce484222325)
	mix := func(x uint64) { h = (h ^ x) * prime }
	mix(uint64(rel.n))
	for _, c := range rel.cols {
		for i := 0; i < len(c.name); i++ {
			mix(uint64(c.name[i]))
		}
		for _, v := range c.ints {
			mix(uint64(v))
		}
		for _, v := range c.floats {
			mix(math.Float64bits(v))
		}
		for _, s := range c.strs {
			mix(uint64(len(s)))
			for i := 0; i < len(s); i++ {
				mix(uint64(s[i]))
			}
		}
	}
	return h, nil
}

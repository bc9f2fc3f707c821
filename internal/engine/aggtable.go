package engine

import (
	"math/bits"

	"monetlite/internal/agg"
	"monetlite/internal/memsim"
)

// aggTable is the engine's one hash-aggregation routine — §3.2's "one
// scan keeping a temporary hash table of aggregate totals", built to
// stay cache-resident: open addressing over int64 group keys (linear
// probing, at most half full) and the aggregates in flat per-group
// count/sum/min/max arrays in first-seen order. A pipeline worker keeps
// one in its arena, presized once per run from the planner's group
// estimate; it grows only when that estimate was too low.
//
// A GroupAggregate[hash] sink folds every vector into its worker's
// table and, at the end of each morsel, compacts the table into one
// exact-size partial and clears only the slots it used. Partials merge
// through the same table in morsel order. Each group therefore sums
// its values in row order from 0 within a morsel, and the morsel sums
// in morsel order — agg.HashGroup per morsel followed by a merge by
// key, whichever worker ran which morsel.
type aggTable struct {
	slots []aggSlot // power-of-two index; len(slots)/2 groups fit
	shift uint8     // 64 − log2(len(slots)): the hash keeps the top bits
	n     int       // groups held
	key   []int64   // per group (len == capacity), first-seen order
	count []int64
	sum   []float64
	min   []float64
	max   []float64
	home  []int32 // per group: its slot, so reset clears only those

	// Instrumented runs: the simulator and the simulated addresses of
	// the slot index (16 bytes a slot) and the 32-byte aggregate rows.
	sim      *memsim.Sim
	slotBase uint64
	aggBase  uint64
}

// aggSlot is one index entry: a key and its group number plus one, so
// the zero value marks an empty slot and every int64 is a valid key.
type aggSlot struct {
	key int64
	g   int32
}

const (
	aggHashMul   = 0x9e3779b97f4a7c15 // Fibonacci hashing
	aggSlotBytes = 16
	aggRowBytes  = 32 // count, sum, min, max
	aggMinSlots  = 16
)

// presize readies the empty table for groups groups without growth
// and binds it to sim (nil on native runs). A table already that large
// is kept, so a warm worker allocates nothing.
func (t *aggTable) presize(groups int, sim *memsim.Sim) {
	want := aggMinSlots
	for want < 2*groups {
		want <<= 1
	}
	if len(t.slots) < want {
		t.resize(want)
	}
	if t.sim != sim {
		t.sim = sim
		t.simAlloc()
	}
}

// resize moves the table onto slots index entries (a power of two),
// keeping its groups in first-seen order and re-inserting their keys.
func (t *aggTable) resize(slots int) {
	c := slots / 2
	t.key = growTo(t.key, t.n, c)
	t.count = growTo(t.count, t.n, c)
	t.sum = growTo(t.sum, t.n, c)
	t.min = growTo(t.min, t.n, c)
	t.max = growTo(t.max, t.n, c)
	t.home = growTo(t.home, t.n, c)
	t.slots = make([]aggSlot, slots)
	t.shift = uint8(64 - bits.TrailingZeros(uint(slots)))
	t.simAlloc()
	for g, k := range t.key[:t.n] {
		_, s := probe(t.slots, t.shift, k)
		t.slots[s] = aggSlot{key: k, g: int32(g) + 1}
		t.home[g] = int32(s)
		if t.sim != nil {
			t.sim.Write(t.slotBase+uint64(s)*aggSlotBytes, aggSlotBytes)
		}
	}
}

// growTo returns a slice of length c holding the first n values of s.
func growTo[T any](s []T, n, c int) []T {
	out := make([]T, c)
	copy(out, s[:n])
	return out
}

// simAlloc gives the current index and aggregate rows fresh simulated
// regions (a realloc, like agg's chained table does when it grows).
func (t *aggTable) simAlloc() {
	if t.sim != nil {
		t.slotBase = t.sim.Alloc(aggSlotBytes * len(t.slots))
		t.aggBase = t.sim.Alloc(aggRowBytes * len(t.key))
	}
}

// probe returns k's group number and slot, or -1 and the empty slot k
// would take.
func probe(slots []aggSlot, shift uint8, k int64) (int32, int) {
	mask := len(slots) - 1
	for s := int(uint64(k) * aggHashMul >> shift); ; s = (s + 1) & mask {
		e := slots[s]
		if e.g == 0 {
			return -1, s
		}
		if e.key == k {
			return e.g - 1, s
		}
	}
}

// fold adds one vector of (key, value) pairs to the table in row
// order, growing it when a misestimated group count fills it.
func (t *aggTable) fold(keys []int64, vals []float64) {
	for i := t.foldRun(keys, vals); i < len(keys); i += t.foldRun(keys[i:], vals[i:]) {
		t.resize(2 * len(t.slots))
	}
	if t.sim != nil {
		t.mirror(keys)
	}
}

// foldRun folds pairs until they run out or a new group finds the
// table full, and returns how many it folded. A new group starts at
// count 0, sum 0 and min = max = its first value, as in agg.HashGroup.
//
//monet:kernel
func (t *aggTable) foldRun(keys []int64, vals []float64) int {
	slots, shift, n := t.slots, t.shift, t.n
	key, count, sum, mn, mx, home := t.key, t.count, t.sum, t.min, t.max, t.home
	vals = vals[:len(keys)]
	for i, k := range keys {
		v := vals[i]
		g, s := probe(slots, shift, k)
		if g < 0 {
			if n == len(key) {
				t.n = n
				return i
			}
			g = int32(n)
			n++
			slots[s] = aggSlot{key: k, g: g + 1}
			key[g], count[g], sum[g], mn[g], mx[g], home[g] = k, 0, 0, v, v, int32(s)
		}
		count[g]++
		sum[g] += v
		if v < mn[g] {
			mn[g] = v
		}
		if v > mx[g] {
			mx[g] = v
		}
	}
	t.n = n
	return len(keys)
}

// mergeRun folds partial rows p[from:] until they run out or a new
// group finds the table full, and returns the row it stopped at. A new
// group takes the partial's aggregates as they are; an existing one
// adds count and sum and folds min and max.
//
//monet:kernel
func (t *aggTable) mergeRun(p *agg.GroupResult, from int) int {
	slots, shift, n := t.slots, t.shift, t.n
	key, count, sum, mn, mx, home := t.key, t.count, t.sum, t.min, t.max, t.home
	for i := from; i < len(p.Key); i++ {
		k := p.Key[i]
		g, s := probe(slots, shift, k)
		if g < 0 {
			if n == len(key) {
				t.n = n
				return i
			}
			g = int32(n)
			n++
			slots[s] = aggSlot{key: k, g: g + 1}
			key[g], count[g], sum[g], mn[g], mx[g], home[g] = k, p.Count[i], p.Sum[i], p.Min[i], p.Max[i], int32(s)
			continue
		}
		count[g] += p.Count[i]
		sum[g] += p.Sum[i]
		if p.Min[i] < mn[g] {
			mn[g] = p.Min[i]
		}
		if p.Max[i] > mx[g] {
			mx[g] = p.Max[i]
		}
	}
	t.n = n
	return len(p.Key)
}

// mirror is the instrumented half of a fold or merge over keys, run
// right after it (the groups must exist): one read of the key's slot
// and one read-modify-write of its 32-byte aggregate row per key, plus
// WScanBUN of CPU — the per-tuple events agg.HashGroup mirrors.
func (t *aggTable) mirror(keys []int64) {
	for _, k := range keys {
		g, s := probe(t.slots, t.shift, k)
		t.sim.Read(t.slotBase+uint64(s)*aggSlotBytes, aggSlotBytes)
		t.sim.Read(t.aggBase+uint64(g)*aggRowBytes, aggRowBytes)
		t.sim.Write(t.aggBase+uint64(g)*aggRowBytes, aggRowBytes)
	}
	t.sim.AddCPU(len(keys), t.sim.Machine().Cost.WScanBUN)
}

// compact returns the table's groups, in first-seen order, as one
// exact-size agg.GroupResult (two allocations) and empties the table.
func (t *aggTable) compact() agg.GroupResult {
	n := t.n
	if n == 0 {
		return agg.GroupResult{}
	}
	ints := make([]int64, 2*n)
	copy(ints, t.key[:n])
	copy(ints[n:], t.count[:n])
	fl := make([]float64, 3*n)
	copy(fl, t.sum[:n])
	copy(fl[n:], t.min[:n])
	copy(fl[2*n:], t.max[:n])
	t.mirrorRows()
	t.reset()
	return agg.GroupResult{Key: ints[:n:n], Count: ints[n:],
		Sum: fl[:n:n], Min: fl[n : 2*n : 2*n], Max: fl[2*n:]}
}

// drain appends the table's groups, in first-seen order, to res —
// doubling res when they do not fit — and empties the table.
func (t *aggTable) drain(res *agg.GroupResult) {
	n := t.n
	if need := res.Groups() + n; need > cap(res.Key) {
		res.Reserve(max(need, 2*cap(res.Key)))
	}
	res.Key = append(res.Key, t.key[:n]...)
	res.Count = append(res.Count, t.count[:n]...)
	res.Sum = append(res.Sum, t.sum[:n]...)
	res.Min = append(res.Min, t.min[:n]...)
	res.Max = append(res.Max, t.max[:n]...)
	t.mirrorRows()
	t.reset()
}

// mirrorRows is the instrumented half of compact and drain: one read of
// every group's 32-byte aggregate row plus WScanBUN/4 of CPU per group.
func (t *aggTable) mirrorRows() {
	if t.sim == nil {
		return
	}
	for g := 0; g < t.n; g++ {
		t.sim.Read(t.aggBase+uint64(g)*aggRowBytes, aggRowBytes)
	}
	t.sim.AddCPU(t.n, t.sim.Machine().Cost.WScanBUN/4)
}

// reset empties the table, clearing only the slots its groups hold
// unless they are a large share of the index anyway.
func (t *aggTable) reset() {
	if 4*t.n >= len(t.slots) {
		clear(t.slots)
	} else {
		for _, s := range t.home[:t.n] {
			t.slots[s] = aggSlot{}
		}
	}
	t.n = 0
}

// merge combines per-morsel partials by group key, in morsel order,
// through the (empty) table and leaves it empty. Iteration order is
// (morsel, partial row), so the merged sums associate identically
// however many workers computed the partials. A lone non-empty partial
// is returned as it is.
func (t *aggTable) merge(parts []agg.GroupResult, sim *memsim.Sim) agg.GroupResult {
	live, last, largest := 0, 0, 0
	for m := range parts {
		if g := parts[m].Groups(); g > 0 {
			live, last, largest = live+1, m, max(largest, g)
		}
	}
	switch live {
	case 0:
		return agg.GroupResult{}
	case 1:
		return parts[last]
	}
	t.presize(largest, sim)
	for m := range parts {
		p := &parts[m]
		for i := t.mergeRun(p, 0); i < len(p.Key); i = t.mergeRun(p, i) {
			t.resize(2 * len(t.slots))
		}
		if t.sim != nil {
			t.mirror(p.Key)
		}
	}
	return t.compact()
}

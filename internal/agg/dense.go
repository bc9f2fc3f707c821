package agg

import (
	"math/bits"

	"monetlite/internal/memsim"
)

// Dense is grouping without a hash: the direct-address accumulator for
// keys known to lie in a dense range [lo, lo+slots) — §3.1's dense
// domains stored as positions, applied to §3.2's aggregate totals. Key
// k folds into slot k−lo, so there is no probe and no compare, and the
// groups come out in ascending key order. It keeps Table's semantics
// exactly: each group sums its values in fold order from 0 and
// min = max = its first value, so every fold, partial and merge is
// bitwise the one Table computes over the same keys in the same order.
//
// The engine runs it two ways. A GroupAggregate[array] sink folds every
// vector into its worker's Dense over the whole key range, compacts one
// partial per morsel and merges the partials in morsel order, like the
// hash sink. A GroupAggregate[radix-range] sink clusters its runs on
// the high bits of key−lo, so every partition is a window of the range
// that fits L1; each window folds its partition's runs in morsel order
// and drains, and the windows concatenate in key order.
//
// A bitmap marks the used slots, so emptying a window costs its groups
// plus one word per 64 slots, not a sweep of the slots.
type Dense struct {
	lo    int64
	slots []denseSlot // the window: key k at slots[k−lo]
	used  []uint64    // one bit per slot, set while the slot holds a group
	n     int         // groups held

	// Instrumented runs: the simulator and the simulated address of the
	// slots (32 bytes each) and of the bitmap.
	sim      *memsim.Sim
	slotBase uint64
	usedBase uint64
}

// denseSlot is one group's aggregates; count == 0 marks an empty slot.
type denseSlot struct {
	count         int64
	sum, min, max float64
}

// DenseSlotBytes is the footprint of one Dense slot: count, sum, min
// and max, 8 bytes each.
const DenseSlotBytes = 32

// Reset readies the empty accumulator for keys in [lo, lo+slots) and
// binds it to sim (nil on native runs). Storage already that large is
// kept, so a warm worker allocates nothing.
func (d *Dense) Reset(lo int64, slots int, sim *memsim.Sim) {
	d.lo = lo
	if cap(d.slots) < slots {
		d.slots = make([]denseSlot, slots)
		d.used = make([]uint64, (slots+63)/64)
		d.sim = nil // the new storage needs simulated addresses too
	}
	d.slots = d.slots[:slots]
	d.used = d.used[:(slots+63)/64]
	if d.sim != sim {
		d.sim = sim
		if sim != nil {
			d.slotBase = sim.Alloc(DenseSlotBytes * cap(d.slots))
			d.usedBase = sim.Alloc(8 * cap(d.used))
		}
	}
}

// Fold adds one vector of (key, value) pairs in row order. Every key
// must lie in the window; one outside it panics.
func (d *Dense) Fold(keys []int64, vals []float64) {
	d.foldRun(keys, vals)
	if d.sim != nil {
		d.mirror(keys)
	}
}

// foldRun is Fold's native kernel. A new group starts at count 0,
// sum 0 and min = max = its first value, as in Table.
//
//monet:kernel
func (d *Dense) foldRun(keys []int64, vals []float64) {
	slots, used, lo, n := d.slots, d.used, uint64(d.lo), d.n
	vals = vals[:len(keys)]
	for i, k := range keys {
		v := vals[i]
		j := uint64(k) - lo
		s := &slots[j]
		if s.count == 0 {
			used[j>>6] |= 1 << (j & 63)
			n++
			s.min, s.max = v, v
		}
		s.count++
		s.sum += v
		if v < s.min {
			s.min = v
		}
		if v > s.max {
			s.max = v
		}
	}
	d.n = n
}

// mergeRun folds partial rows into the window. A new group takes the
// partial's aggregates as they are; an existing one adds count and sum
// and folds min and max — Table.mergeRun's rule.
//
//monet:kernel
func (d *Dense) mergeRun(p *GroupResult) {
	slots, used, lo, n := d.slots, d.used, uint64(d.lo), d.n
	cnt, sum, mn, mx := p.Count[:len(p.Key)], p.Sum[:len(p.Key)], p.Min[:len(p.Key)], p.Max[:len(p.Key)]
	for i, k := range p.Key {
		j := uint64(k) - lo
		s := &slots[j]
		if s.count == 0 {
			used[j>>6] |= 1 << (j & 63)
			n++
			*s = denseSlot{count: cnt[i], sum: sum[i], min: mn[i], max: mx[i]}
			continue
		}
		s.count += cnt[i]
		s.sum += sum[i]
		if mn[i] < s.min {
			s.min = mn[i]
		}
		if mx[i] > s.max {
			s.max = mx[i]
		}
	}
	d.n = n
}

// mirror is the instrumented half of a fold or merge over keys, run
// right after it: one read-modify-write of the key's 32-byte slot per
// key plus WScanBUN/2 of CPU per key (an index computation, where
// Table's probe costs WScanBUN).
func (d *Dense) mirror(keys []int64) {
	for _, k := range keys {
		a := d.slotBase + (uint64(k)-uint64(d.lo))*DenseSlotBytes
		d.sim.Read(a, DenseSlotBytes)
		d.sim.Write(a, DenseSlotBytes)
	}
	d.sim.AddCPU(len(keys), d.sim.Machine().Cost.WScanBUN/2)
}

// Compact returns the window's groups, in key order, as one exact-size
// GroupResult (two allocations, as Table.Compact) and empties it.
func (d *Dense) Compact() GroupResult {
	n := d.n
	if n == 0 {
		return GroupResult{}
	}
	ints := make([]int64, 2*n)
	fl := make([]float64, 3*n)
	if d.sim != nil {
		d.mirrorDrain()
	}
	d.drainInto(ints[:n:n], ints[n:], fl[:n:n], fl[n:2*n:2*n], fl[2*n:])
	return GroupResult{Key: ints[:n:n], Count: ints[n:],
		Sum: fl[:n:n], Min: fl[n : 2*n : 2*n], Max: fl[2*n:]}
}

// Drain appends the window's groups, in key order, to res — growing res
// when they do not fit — and empties the window.
func (d *Dense) Drain(res *GroupResult) {
	at, n := res.Groups(), d.n
	if need := at + n; need > cap(res.Key) {
		res.Reserve(max(need, 2*cap(res.Key)))
	}
	res.Key, res.Count = res.Key[:at+n], res.Count[:at+n]
	res.Sum, res.Min, res.Max = res.Sum[:at+n], res.Min[:at+n], res.Max[:at+n]
	if d.sim != nil {
		d.mirrorDrain()
	}
	d.drainInto(res.Key[at:], res.Count[at:], res.Sum[at:], res.Min[at:], res.Max[at:])
}

// drainInto writes the groups in slot order into the first d.n entries
// of the columns, clearing each slot and bitmap word it reads.
//
//monet:kernel
func (d *Dense) drainInto(key, count []int64, sum, mn, mx []float64) {
	slots, lo, at := d.slots, d.lo, 0
	for w, word := range d.used {
		if word == 0 {
			continue
		}
		d.used[w] = 0
		for word != 0 {
			j := w<<6 | bits.TrailingZeros64(word)
			word &= word - 1
			s := &slots[j]
			key[at], count[at], sum[at], mn[at], mx[at] = lo+int64(j), s.count, s.sum, s.min, s.max
			*s = denseSlot{}
			at++
		}
	}
	d.n = 0
}

// mirrorDrain is the instrumented half of a drain, run right before it: a
// sweep of the bitmap, one read of every used slot in slot order and
// WScanBUN/4 of CPU per group.
func (d *Dense) mirrorDrain() {
	for w, word := range d.used {
		d.sim.Read(d.usedBase+uint64(w)*8, 8)
		for ; word != 0; word &= word - 1 {
			j := uint64(w<<6 | bits.TrailingZeros64(word))
			d.sim.Read(d.slotBase+j*DenseSlotBytes, DenseSlotBytes)
		}
	}
	d.sim.AddCPU(d.n, d.sim.Machine().Cost.WScanBUN/4)
}

// Merge combines per-morsel partials whose keys lie in [lo, lo+slots)
// by key, in morsel order, through the (empty) accumulator and leaves
// it empty. Iteration order is (morsel, partial row), so every sum
// associates exactly as Table.Merge's does; the result is in key order.
// A lone non-empty partial is returned as it is.
func (d *Dense) Merge(parts []GroupResult, lo int64, slots int, sim *memsim.Sim) GroupResult {
	live, last := 0, 0
	for m := range parts {
		if parts[m].Groups() > 0 {
			live, last = live+1, m
		}
	}
	switch live {
	case 0:
		return GroupResult{}
	case 1:
		return parts[last]
	}
	d.Reset(lo, slots, sim)
	for m := range parts {
		d.mergeRun(&parts[m])
		if d.sim != nil {
			d.mirror(parts[m].Key)
		}
	}
	return d.Compact()
}

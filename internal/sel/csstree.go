package sel

import (
	"sort"

	"monetlite/internal/bat"
	"monetlite/internal/memsim"
)

// CSSTree is the cache-line-conscious static B+-tree of the §3.2
// discussion ([Ron98]: "a B-tree with a block-size equal to the cache
// line size is optimal"): internal nodes hold exactly one cache line
// of separator keys, children are found by arithmetic instead of
// pointers, and the leaves are the sorted column itself. Each level
// of a descent therefore costs exactly one cache-line touch.
type CSSTree struct {
	col *Column
	m   int // keys per node = line size / 4

	// levels[0] is the sorted leaf keys; levels[k>0] holds, for each
	// node group of level k-1, its last key (the separators).
	levels [][]int32
	oids   []bat.Oid // leaf OIDs parallel to levels[0]

	bases    []uint64 // simulated base per level
	oidsBase uint64
	marks    uint64 // simulated MarkRange bitmap, allocated on first use
}

// BuildCSSTree constructs the tree with node size equal to the
// machine's L1 cache line (the Rönström design point). With a nil sim
// the Origin2000's 32-byte line (8 keys) is used.
func BuildCSSTree(sim *memsim.Sim, c *Column) *CSSTree {
	line := 32
	if sim != nil {
		line = sim.Machine().L1.LineSize
	}
	m := line / 4
	if m < 2 {
		m = 2
	}
	es := sortedEntries(c)
	leaf := make([]int32, len(es))
	oids := make([]bat.Oid, len(es))
	for i, e := range es {
		leaf[i] = e.val
		oids[i] = e.oid
	}
	t := &CSSTree{col: c, m: m, levels: [][]int32{leaf}, oids: oids}
	for len(t.levels[len(t.levels)-1]) > m {
		below := t.levels[len(t.levels)-1]
		var seps []int32
		for lo := 0; lo < len(below); lo += m {
			hi := lo + m
			if hi > len(below) {
				hi = len(below)
			}
			seps = append(seps, below[hi-1])
		}
		t.levels = append(t.levels, seps)
	}
	c.Bind(sim)
	if sim != nil {
		t.bases = make([]uint64, len(t.levels))
		for i, lv := range t.levels {
			t.bases[i] = sim.Alloc(4 * len(lv))
			for j := range lv {
				sim.Write(t.bases[i]+uint64(j)*4, 4)
			}
		}
		t.oidsBase = sim.Alloc(4 * len(oids))
		for j := range oids {
			sim.Write(t.oidsBase+uint64(j)*4, 4)
		}
	}
	return t
}

// touchNode mirrors reading one node (one cache line) of a level,
// charging the in-node search work.
func (t *CSSTree) touchNode(sim *memsim.Sim, level, node int) {
	if sim == nil {
		return
	}
	lo := node * t.m
	hi := lo + t.m
	if hi > len(t.levels[level]) {
		hi = len(t.levels[level])
	}
	if lo < hi {
		sim.Read(t.bases[level]+uint64(lo)*4, 4*(hi-lo))
		sim.AddCPU(hi-lo, sim.Machine().Cost.WScanBUN/4)
	}
}

// lowerBound descends to the index of the first leaf key ≥ key.
func (t *CSSTree) lowerBound(sim *memsim.Sim, key int32) int {
	node := 0
	for level := len(t.levels) - 1; level > 0; level-- {
		lv := t.levels[level]
		lo := node * t.m
		hi := lo + t.m
		if hi > len(lv) {
			hi = len(lv)
		}
		t.touchNode(sim, level, node)
		p := lo
		for p < hi && lv[p] < key {
			p++
		}
		if p == hi { // key beyond every separator: rightmost child
			p = hi - 1
		}
		node = p
	}
	// Leaf node scan.
	leaf := t.levels[0]
	lo := node * t.m
	hi := lo + t.m
	if hi > len(leaf) {
		hi = len(leaf)
	}
	t.touchNode(sim, 0, node)
	p := lo
	for p < hi && leaf[p] < key {
		p++
	}
	return p
}

// Lookup returns the OIDs of all leaf entries equal to key. The
// result is never nil: engine bindings read a nil OID list as "all
// rows", so an empty match must stay a non-nil empty slice.
func (t *CSSTree) Lookup(sim *memsim.Sim, key int32) []bat.Oid {
	return t.RangeSelect(sim, key, key)
}

// leafBounds returns the leaf index range [a, b) of the values in
// [lo, hi]: one descent to the first key ≥ lo, then the end of the run
// of keys ≤ hi. Only the descent is mirrored; callers mirror the leaf
// entries they read, which is the sequential scan that finds b.
func (t *CSSTree) leafBounds(sim *memsim.Sim, lo, hi int32) (a, b int) {
	leaf := t.levels[0]
	if len(leaf) == 0 {
		return 0, 0
	}
	a = t.lowerBound(sim, lo)
	return a, a + sort.Search(len(leaf)-a, func(i int) bool { return leaf[a+i] > hi })
}

// readLeaves mirrors the sequential scan of leaf entries [a, b): each
// entry's key and OID, and the per-entry comparison.
func (t *CSSTree) readLeaves(sim *memsim.Sim, a, b int) {
	for i := a; i < b; i++ {
		sim.Read(t.bases[0]+uint64(i)*4, 4)
		sim.Read(t.oidsBase+uint64(i)*4, 4)
	}
	sim.AddCPU(b-a, sim.Machine().Cost.WScanBUN/4)
}

// RangeSelect returns the OIDs of all values in [lo, hi], in value
// order: one descent plus a sequential leaf scan (the cache-friendly
// part of the design), copied out in one exact-size allocation. Like
// Lookup, it never returns nil — nil means "all rows" downstream.
func (t *CSSTree) RangeSelect(sim *memsim.Sim, lo, hi int32) []bat.Oid {
	a, b := t.leafBounds(sim, lo, hi)
	if sim != nil {
		t.readLeaves(sim, a, b)
	}
	out := make([]bat.Oid, b-a)
	copy(out, t.oids[a:b])
	return out
}

// MarkRange sets bit o of bits (bit o%64 of word o/64) for the OID o of
// every value in [lo, hi] and returns how many it set: RangeSelect's
// descent and leaf scan, but the result lands in a position bitmap, so
// draining it word by word yields the OIDs in storage order with no
// sort. bits must cover every indexed OID — at least ⌈n/64⌉ words for
// an n-row column — and start zeroed. An instrumented run also mirrors
// each mark, a read-modify-write of one bitmap word, into a bitmap
// region the tree allocates on first use; TouchMarks mirrors the drain.
func (t *CSSTree) MarkRange(sim *memsim.Sim, lo, hi int32, bits []uint64) int {
	a, b := t.leafBounds(sim, lo, hi)
	for _, o := range t.oids[a:b] {
		bits[o>>6] |= 1 << (o & 63)
	}
	if sim != nil && b > a {
		t.readLeaves(sim, a, b)
		base := t.marksBase(sim)
		for _, o := range t.oids[a:b] {
			addr := base + uint64(o>>6)*8
			sim.Read(addr, 8)
			sim.Write(addr, 8)
		}
		sim.AddCPU(b-a, sim.Machine().Cost.WScanBUN)
	}
	return b - a
}

// TouchMarks mirrors draining the MarkRange bitmap over the positions
// [from, to): one read of every word covering them, with the per-word
// test. Instrumented runs call it right before the native drain.
func (t *CSSTree) TouchMarks(sim *memsim.Sim, from, to int) {
	if from >= to {
		return
	}
	base := t.marksBase(sim)
	w0, w1 := from>>6, (to-1)>>6
	for w := w0; w <= w1; w++ {
		sim.Read(base+uint64(w)*8, 8)
	}
	sim.AddCPU(w1-w0+1, sim.Machine().Cost.WScanBUN/4)
}

// marksBase returns the simulated address of the tree's bitmap (one
// bit per indexed row), allocating it the first time.
func (t *CSSTree) marksBase(sim *memsim.Sim) uint64 {
	if t.marks == 0 {
		t.marks = sim.Alloc(8 * ((len(t.oids) + 63) / 64))
	}
	return t.marks
}

// Height returns the number of levels (diagnostics: a descent touches
// exactly Height cache lines).
func (t *CSSTree) Height() int { return len(t.levels) }

// Package sortx provides the sorting machinery behind sort-merge join
// and the radix-sort degeneration of radix-join ([Knu68], §3.3.1):
// LSB radix sort on the 32-bit Tail keys of BAT tuples and a
// sortedness check. The instrumented mode mirrors every tuple movement
// into a memsim.Sim, which is what gives sort-merge join its "random
// access over even a larger memory region" cost signature in Figure 13.
package sortx

import (
	"monetlite/internal/bat"
	"monetlite/internal/memsim"
)

// radixBitsPerPass is the digit width of the LSB radix sort: 8 bits =
// 256 counting buckets per pass, four passes for 32-bit keys.
const radixBitsPerPass = 8

// SortPairs sorts p in place by Tail using LSB radix sort, mirroring
// accesses into sim when non-nil (p must be bound then). The scratch
// buffer, if non-nil, must have the same length; passing one lets
// callers reuse allocations.
func SortPairs(sim *memsim.Sim, p *bat.Pairs, scratch *bat.Pairs) {
	n := p.Len()
	if n < 2 {
		return
	}
	if scratch == nil || scratch.Len() != n {
		scratch = bat.NewPairs(n)
	}
	scratch.Bind(sim)

	src, dst := p, scratch
	const radix = 1 << radixBitsPerPass
	var counts [radix]int
	for shift := 0; shift < 32; shift += radixBitsPerPass {
		for i := range counts {
			counts[i] = 0
		}
		for i, bun := range src.BUNs {
			if sim != nil {
				sim.Read(src.Addr(i), bat.PairSize)
			}
			counts[(bun.Tail>>shift)&(radix-1)]++
		}
		pos := 0
		for i := range counts {
			c := counts[i]
			counts[i] = pos
			pos += c
		}
		for i, bun := range src.BUNs {
			d := counts[(bun.Tail>>shift)&(radix-1)]
			counts[(bun.Tail>>shift)&(radix-1)]++
			if sim != nil {
				sim.Read(src.Addr(i), bat.PairSize)
				sim.Write(dst.Addr(d), bat.PairSize)
			}
			dst.BUNs[d] = bun
		}
		src, dst = dst, src
	}
	// 32/8 = 4 passes: even, so the sorted data ended in p already.
}

// IsSortedByTail reports whether p is non-decreasing on Tail.
func IsSortedByTail(p *bat.Pairs) bool {
	for i := 1; i < p.Len(); i++ {
		if p.BUNs[i-1].Tail > p.BUNs[i].Tail {
			return false
		}
	}
	return true
}

// MergeJoinSorted merges two Tail-sorted BATs and emits the join index
// [l.Head, r.Head] for every pair of tuples with equal Tail. Handles
// duplicate keys on both sides (cross product per key group).
func MergeJoinSorted(sim *memsim.Sim, l, r *bat.Pairs, emit func(lh, rh bat.Oid)) {
	i, j := 0, 0
	nl, nr := l.Len(), r.Len()
	for i < nl && j < nr {
		if sim != nil {
			sim.Read(l.Addr(i), bat.PairSize)
			sim.Read(r.Addr(j), bat.PairSize)
		}
		lv, rv := l.BUNs[i].Tail, r.BUNs[j].Tail
		switch {
		case lv < rv:
			i++
		case lv > rv:
			j++
		default:
			// Key group: find extents on both sides.
			i2 := i + 1
			for i2 < nl && l.BUNs[i2].Tail == lv {
				if sim != nil {
					sim.Read(l.Addr(i2), bat.PairSize)
				}
				i2++
			}
			j2 := j + 1
			for j2 < nr && r.BUNs[j2].Tail == rv {
				if sim != nil {
					sim.Read(r.Addr(j2), bat.PairSize)
				}
				j2++
			}
			for a := i; a < i2; a++ {
				for b := j; b < j2; b++ {
					emit(l.BUNs[a].Head, r.BUNs[b].Head)
				}
			}
			i, j = i2, j2
		}
	}
}

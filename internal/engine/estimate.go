package engine

import (
	"math"
	"math/bits"

	"monetlite/internal/bat"
	"monetlite/internal/dsm"
)

// samplePositions returns up to 1024 evenly spaced positions of an
// n-row column: the deterministic probe set behind every selectivity
// and group-count estimate of the planner.
func samplePositions(n int) []int {
	if n <= 0 {
		return nil
	}
	step := (n + 1023) / 1024
	if step < 1 {
		step = 1
	}
	out := make([]int, 0, (n+step-1)/step)
	for i := 0; i < n; i += step {
		out = append(out, i)
	}
	return out
}

// estimateFraction estimates the fraction of rows a predicate selects
// by probing evenly spaced sample positions. Every exit routes through
// clampFraction, so the result is never exactly 0 — a zero estimate
// would collapse all downstream cardinalities and degenerate the
// planner's join and grouping choices. In particular a dictionary miss
// (predicate value outside the encoding) and an empty sample set still
// return the clamp floor, not 0.
func estimateFraction(c *dsm.Column, pred Predicate) float64 {
	n := c.Vec.Len()
	pos := samplePositions(n)
	match := 0
	switch p := pred.(type) {
	case RangePred:
		for _, i := range pos {
			if v := c.Vec.Int(i); v >= p.Lo && v <= p.Hi {
				match++
			}
		}
	case EqStringPred:
		if c.Enc != nil {
			code, ok := c.Enc.Code(p.Value)
			if !ok {
				return clampFraction(0, len(pos))
			}
			for _, i := range pos {
				if dsm.CodeAt(c, i) == code {
					match++
				}
			}
		} else if sv, ok := c.Vec.(*bat.StrVec); ok {
			for _, i := range pos {
				if sv.Str(i) == p.Value {
					match++
				}
			}
		}
	}
	if len(pos) == 0 {
		return clampFraction(0, 0)
	}
	return clampFraction(float64(match)/float64(len(pos)), len(pos))
}

// clampFraction clamps a sampled selectivity away from exactly 0: the
// floor is half a hit over the probe count — the resolution limit of
// the sample. With no probes at all (an empty column) there is no
// evidence either way, and the floor degenerates to 0.5.
func clampFraction(f float64, samples int) float64 {
	if samples < 1 {
		samples = 1
	}
	if floor := 0.5 / float64(samples); f < floor {
		return floor
	}
	return f
}

// estimateGroups estimates the number of distinct group keys. An
// encoded column's dictionary gives the exact domain. Otherwise the
// sample's distinct count is used directly while the sample covers the
// domain (each value seen several times); once most samples are
// distinct, the count only bounds the domain from below, so the
// estimate inverts the birthday-collision expectation instead — s
// uniform draws from D values collide ≈ s²/2D times — saturating to
// the full cardinality when the sample has no collision at all. A
// column that knows its value range never gets more groups than the
// range has values.
func estimateGroups(c *dsm.Column) float64 {
	if c.Enc != nil {
		return float64(len(c.Enc.Dict))
	}
	n := c.Vec.Len()
	pos := samplePositions(n)
	if len(pos) == 0 {
		return 1
	}
	seen := make(map[int64]struct{}, len(pos))
	for _, i := range pos {
		seen[c.Vec.Int(i)] = struct{}{}
	}
	d := len(seen)
	s := len(pos)
	est := float64(d)
	switch {
	case d >= s:
		est = float64(n) // no collisions: assume near-unique key
	case d > s/2:
		// Nearly saturated: invert E[collisions] ≈ s²/2D for the
		// domain size, clamped to [d, n].
		est = float64(s) * float64(s) / (2 * float64(s-d))
		est = math.Min(float64(n), math.Max(float64(d), est))
	}
	if lo, hi, ok := c.Range(); ok {
		est = math.Min(est, float64(uint64(hi)-uint64(lo))+1)
	}
	return est
}

// keyRangeBits is the bits the group keys span above their minimum,
// which sets the result sort's pass count: exact for a key column that
// knows its value range (dictionary codes 0..len(Dict)−1, or
// Decompose's min and max), and otherwise as if the g estimated groups
// were dense.
func keyRangeBits(c *dsm.Column, g float64) int {
	if lo, hi, ok := c.Range(); ok {
		return bits.Len64(uint64(hi) - uint64(lo))
	}
	return bits.Len64(uint64(math.Max(math.Ceil(g), 1)) - 1)
}

package engine

import (
	"fmt"
	"math"

	"monetlite/internal/bat"
	"monetlite/internal/dsm"
)

// The whole-column gather a Join or a HashProbe's build needs for its
// key column: the native (sim == nil) loop carries no per-element
// simulator plumbing — no Touch interface calls — reads the typed
// slices directly, and fans out over the worker pool in morsels (each
// morsel fills its own disjoint output range, so the result is
// byte-identical to a serial fill); the instrumented loop stays serial
// and mirrors every access.

// positions resolves the binding's row → storage-position mapping
// once, morsel-parallel on the native path. A nil result means the
// identity mapping (unfiltered binding).
func (b binding) positions(ctx *execCtx) ([]int, error) {
	if b.oids == nil {
		return nil, nil
	}
	out := make([]int, len(b.oids))
	err := ctx.forMorselsErr(len(b.oids), func(_, lo, hi int) error {
		for i := lo; i < hi; i++ {
			p, ok := b.table.Head.Position(b.oids[i])
			if !ok {
				return fmt.Errorf("engine: OID %d outside table %s", b.oids[i], b.table.Schema.Name)
			}
			out[i] = p
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// gatherPairs builds the [row, value] BAT of a join key column through
// the binding: heads are row indices into the intermediate, tails the
// key values, which must fit uint32. The gather writes the pairs
// directly — no widened temporary — so the BAT is the only copy.
func gatherPairs(ctx *execCtx, b binding, c *dsm.Column, name string) (*bat.Pairs, error) {
	pos, err := b.positions(ctx)
	if err != nil {
		return nil, err
	}
	n := b.rows()
	pairs := bat.NewPairs(n)
	pairs.Bind(ctx.sim)
	if ctx.sim == nil {
		return pairs, ctx.forMorselsErr(n, func(_, lo, hi int) error {
			var bad int64
			ok := true
			switch v := c.Vec.(type) {
			case *bat.I8Vec:
				bad, ok = fillPairs(pairs.BUNs, v.V, pos, lo, hi)
			case *bat.I16Vec:
				bad, ok = fillPairs(pairs.BUNs, v.V, pos, lo, hi)
			case *bat.I32Vec:
				bad, ok = fillPairs(pairs.BUNs, v.V, pos, lo, hi)
			case *bat.I64Vec:
				bad, ok = fillPairs(pairs.BUNs, v.V, pos, lo, hi)
			default:
				for i := lo; i < hi && ok; i++ {
					bad, ok = pairOf(&pairs.BUNs[i], i, c.Vec.Int(at(pos, i)))
				}
			}
			if !ok {
				return outsideUint32(bad, name)
			}
			return nil
		})
	}
	c.Vec.Bind(ctx.sim)
	for i := 0; i < n; i++ {
		p := at(pos, i)
		c.Vec.Touch(ctx.sim, p)
		if v, ok := pairOf(&pairs.BUNs[i], i, c.Vec.Int(p)); !ok {
			return nil, outsideUint32(v, name)
		}
		ctx.sim.Write(pairs.Addr(i), bat.PairSize)
	}
	return pairs, nil
}

func outsideUint32(v int64, name string) error {
	return fmt.Errorf("engine: join value %d of %s outside uint32", v, name)
}

// pairOf sets one BUN to (row i, v), reporting v back when it does not
// fit uint32.
func pairOf(dst *bat.Pair, i int, v int64) (int64, bool) {
	if v < 0 || v > math.MaxUint32 {
		return v, false
	}
	*dst = bat.Pair{Head: bat.Oid(i), Tail: uint32(v)}
	return 0, true
}

// at maps row i through an optional position list.
func at(pos []int, i int) int {
	if pos == nil {
		return i
	}
	return pos[i]
}

// fillPairs fills BUNs [lo, hi) from one typed slice through an
// optional position list, stopping at the first value outside uint32.
func fillPairs[T int8 | int16 | int32 | int64](dst []bat.Pair, src []T, pos []int, lo, hi int) (int64, bool) {
	for i := lo; i < hi; i++ {
		p := i
		if pos != nil {
			p = pos[i]
		}
		if v, ok := pairOf(&dst[i], i, int64(src[p])); !ok {
			return v, false
		}
	}
	return 0, true
}

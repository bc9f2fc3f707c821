package engine

import (
	"fmt"

	"monetlite/internal/bat"
	"monetlite/internal/dsm"
)

// The whole-column gather a Join needs for its key column: the native
// (sim == nil) loop carries no per-element simulator plumbing — no
// Touch interface calls, no per-row error checks — reads the typed
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

// gatherInt64s materializes a numeric column's widened values through
// the binding.
func gatherInt64s(ctx *execCtx, b binding, c *dsm.Column) ([]int64, error) {
	pos, err := b.positions(ctx)
	if err != nil {
		return nil, err
	}
	n := b.rows()
	out := make([]int64, n)
	if ctx.sim == nil {
		ctx.forMorsels(n, func(_, lo, hi int) {
			switch v := c.Vec.(type) {
			case *bat.I8Vec:
				fillInts(out, v.V, pos, lo, hi)
			case *bat.I16Vec:
				fillInts(out, v.V, pos, lo, hi)
			case *bat.I32Vec:
				fillInts(out, v.V, pos, lo, hi)
			case *bat.I64Vec:
				fillInts(out, v.V, pos, lo, hi)
			default:
				for i := lo; i < hi; i++ {
					out[i] = c.Vec.Int(at(pos, i))
				}
			}
		})
		return out, nil
	}
	c.Vec.Bind(ctx.sim)
	for i := 0; i < n; i++ {
		p := at(pos, i)
		c.Vec.Touch(ctx.sim, p)
		out[i] = c.Vec.Int(p)
	}
	return out, nil
}

// at maps row i through an optional position list.
func at(pos []int, i int) int {
	if pos == nil {
		return i
	}
	return pos[i]
}

// fillInts widens rows [lo, hi) of one typed slice through an optional
// position list.
func fillInts[T int8 | int16 | int32 | int64](dst []int64, src []T, pos []int, lo, hi int) {
	if pos == nil {
		for i := lo; i < hi; i++ {
			dst[i] = int64(src[i])
		}
		return
	}
	for i := lo; i < hi; i++ {
		dst[i] = int64(src[pos[i]])
	}
}

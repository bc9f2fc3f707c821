package dsm

import (
	"fmt"
	"math/bits"

	"monetlite/internal/bat"
)

// Into-caller-buffer kernels for the engine's pipelines: ranged
// selects (and a position-bitmap drain) that append matching storage
// positions into a caller-owned vector, positional refilters that
// compact a row vector in place, and positional gathers that append
// (or fill) column values through a position vector. None of them allocate when the caller's buffer has
// capacity, so a pipeline worker can reuse one small set of vectors
// across every morsel it drains — the whole point of cache-resident
// execution. All kernels are native-only: they mirror nothing into a
// simulator, so instrumented runs replay each kernel's column reads in
// a touch pass before calling it.

// SelectRangePos appends the storage positions in [from, to) whose
// numeric column value lies in [lo, hi] to dst, in ascending order.
//
//monet:kernel
func SelectRangePos(c *Column, lo, hi int64, from, to int, dst []int32) []int32 {
	switch v := c.Vec.(type) {
	case *bat.I8Vec:
		return selectRangePosSlice(v.V, lo, hi, from, to, dst)
	case *bat.I16Vec:
		return selectRangePosSlice(v.V, lo, hi, from, to, dst)
	case *bat.I32Vec:
		return selectRangePosSlice(v.V, lo, hi, from, to, dst)
	case *bat.I64Vec:
		return selectRangePosSlice(v.V, lo, hi, from, to, dst)
	default:
		for i := from; i < to; i++ {
			if x := c.Vec.Int(i); x >= lo && x <= hi {
				dst = append(dst, int32(i))
			}
		}
		return dst
	}
}

//monet:kernel
func selectRangePosSlice[T int8 | int16 | int32 | int64](vals []T, lo, hi int64, from, to int, dst []int32) []int32 {
	for i, v := range vals[from:to] {
		if x := int64(v); x >= lo && x <= hi {
			dst = append(dst, int32(from+i))
		}
	}
	return dst
}

// SelectCodePos appends the storage positions in [from, to) whose
// unsigned dictionary code equals code to dst — the §3.1 re-mapped
// string-equality scan as a pipeline stage.
//
//monet:kernel
func SelectCodePos(c *Column, code int64, from, to int, dst []int32) []int32 {
	switch v := c.Vec.(type) {
	case *bat.I8Vec:
		return selectCodePosSlice(v.V, int8(code), from, to, dst)
	case *bat.I16Vec:
		return selectCodePosSlice(v.V, int16(code), from, to, dst)
	default:
		for i := from; i < to; i++ {
			if codeOf(c, i) == code {
				dst = append(dst, int32(i))
			}
		}
		return dst
	}
}

//monet:kernel
func selectCodePosSlice[T int8 | int16](vals []T, code T, from, to int, dst []int32) []int32 {
	for i, v := range vals[from:to] {
		if v == code {
			dst = append(dst, int32(from+i))
		}
	}
	return dst
}

// SelectBitsPos appends the positions in [from, to) whose bit is set in
// the position bitmap words (bit p%64 of words[p/64]) to dst, in
// ascending order — the drain of a bitmap an index marked. Zero words
// are skipped whole.
//
//monet:kernel
func SelectBitsPos(words []uint64, from, to int, dst []int32) []int32 {
	if from >= to {
		return dst
	}
	last := (to - 1) >> 6
	for w := from >> 6; w <= last; w++ {
		x := words[w]
		if x == 0 {
			continue
		}
		base := w << 6
		if base < from {
			x &= ^uint64(0) << uint(from-base)
		}
		if w == last {
			x &= ^uint64(0) >> uint(base+64-to)
		}
		for x != 0 {
			dst = append(dst, int32(base+bits.TrailingZeros64(x)))
			x &= x - 1
		}
	}
	return dst
}

// FilterRangePos keeps the positions whose numeric column value lies
// in [lo, hi], compacting pos in place.
func FilterRangePos(c *Column, lo, hi int64, pos []int32) []int32 {
	return KeepRangePos(c, lo, hi, pos, pos)
}

// KeepRangePos keeps rows[i] for every i whose storage position pos[i]
// holds a numeric value in [lo, hi], compacting rows in place (a
// refilter pipeline stage; rows may be pos itself). len(rows) must be
// at least len(pos).
//
//monet:kernel
func KeepRangePos(c *Column, lo, hi int64, pos, rows []int32) []int32 {
	switch v := c.Vec.(type) {
	case *bat.I8Vec:
		return keepRangePosSlice(v.V, lo, hi, pos, rows)
	case *bat.I16Vec:
		return keepRangePosSlice(v.V, lo, hi, pos, rows)
	case *bat.I32Vec:
		return keepRangePosSlice(v.V, lo, hi, pos, rows)
	case *bat.I64Vec:
		return keepRangePosSlice(v.V, lo, hi, pos, rows)
	default:
		out := rows[:0]
		for i, p := range pos {
			if x := c.Vec.Int(int(p)); x >= lo && x <= hi {
				out = append(out, rows[i])
			}
		}
		return out
	}
}

//monet:kernel
func keepRangePosSlice[T int8 | int16 | int32 | int64](vals []T, lo, hi int64, pos, rows []int32) []int32 {
	rows = rows[:len(pos)]
	out := rows[:0]
	for i, p := range pos {
		if x := int64(vals[p]); x >= lo && x <= hi {
			out = append(out, rows[i])
		}
	}
	return out
}

// FilterCodePos keeps the positions whose unsigned dictionary code
// equals code, compacting pos in place.
func FilterCodePos(c *Column, code int64, pos []int32) []int32 {
	return KeepCodePos(c, code, pos, pos)
}

// KeepCodePos keeps rows[i] for every i whose storage position pos[i]
// holds the unsigned dictionary code, compacting rows in place.
//
//monet:kernel
func KeepCodePos(c *Column, code int64, pos, rows []int32) []int32 {
	switch v := c.Vec.(type) {
	case *bat.I8Vec:
		return keepCodePosSlice(v.V, int8(code), pos, rows)
	case *bat.I16Vec:
		return keepCodePosSlice(v.V, int16(code), pos, rows)
	default:
		out := rows[:0]
		for i, p := range pos {
			if codeOf(c, int(p)) == code {
				out = append(out, rows[i])
			}
		}
		return out
	}
}

//monet:kernel
func keepCodePosSlice[T int8 | int16](vals []T, code T, pos, rows []int32) []int32 {
	rows = rows[:len(pos)]
	out := rows[:0]
	for i, p := range pos {
		if vals[p] == code {
			out = append(out, rows[i])
		}
	}
	return out
}

// AppendIntsPos appends the widened integer values at the given
// positions to dst (signed, like every integer gather).
//
//monet:kernel
func AppendIntsPos(dst []int64, c *Column, pos []int32) []int64 {
	switch v := c.Vec.(type) {
	case *bat.I8Vec:
		return appendIntsPosSlice(dst, v.V, pos)
	case *bat.I16Vec:
		return appendIntsPosSlice(dst, v.V, pos)
	case *bat.I32Vec:
		return appendIntsPosSlice(dst, v.V, pos)
	case *bat.I64Vec:
		return appendIntsPosSlice(dst, v.V, pos)
	default:
		for _, p := range pos {
			dst = append(dst, c.Vec.Int(int(p)))
		}
		return dst
	}
}

//monet:kernel
func appendIntsPosSlice[T int8 | int16 | int32 | int64](dst []int64, vals []T, pos []int32) []int64 {
	for _, p := range pos {
		dst = append(dst, int64(vals[p]))
	}
	return dst
}

// AppendCodesPos appends the unsigned dictionary codes at the given
// positions to dst (the wraparound-corrected form the group keys use).
//
//monet:kernel
func AppendCodesPos(dst []int64, c *Column, pos []int32) []int64 {
	wrap := CodeWrap(c)
	at := len(dst)
	dst = AppendIntsPos(dst, c, pos)
	if wrap != 0 {
		for i := at; i < len(dst); i++ {
			if dst[i] < 0 {
				dst[i] += wrap
			}
		}
	}
	return dst
}

// AppendFloatsPos appends the float-widened values at the given
// positions to dst.
//
//monet:kernel
func AppendFloatsPos(dst []float64, c *Column, pos []int32) []float64 {
	switch v := c.Vec.(type) {
	case *bat.F64Vec:
		for _, p := range pos {
			dst = append(dst, v.V[p])
		}
		return dst
	case *bat.I8Vec:
		return appendFloatsPosSlice(dst, v.V, pos)
	case *bat.I16Vec:
		return appendFloatsPosSlice(dst, v.V, pos)
	case *bat.I32Vec:
		return appendFloatsPosSlice(dst, v.V, pos)
	case *bat.I64Vec:
		return appendFloatsPosSlice(dst, v.V, pos)
	default:
		for _, p := range pos {
			dst = append(dst, float64(c.Vec.Int(int(p))))
		}
		return dst
	}
}

//monet:kernel
func appendFloatsPosSlice[T int8 | int16 | int32 | int64](dst []float64, vals []T, pos []int32) []float64 {
	for _, p := range pos {
		dst = append(dst, float64(vals[p]))
	}
	return dst
}

// GatherFloatsPos fills dst[:len(pos)] with the float-widened values
// at the given positions — the scratch-buffer form AppendFloatsPos
// takes when the result is consumed immediately (measure operands).
//
//monet:kernel
func GatherFloatsPos(c *Column, pos []int32, dst []float64) []float64 {
	return AppendFloatsPos(dst[:0], c, pos)
}

// AppendStringsPos appends the decoded string values at the given
// positions to dst (dictionary decode, or direct string storage).
//
//monet:kernel
func AppendStringsPos(dst []string, c *Column, pos []int32) ([]string, error) {
	if c.Enc != nil {
		for _, p := range pos {
			dst = append(dst, c.Enc.Decode(c.Vec.Int(int(p))))
		}
		return dst, nil
	}
	sv, ok := c.Vec.(*bat.StrVec)
	if !ok {
		//monet:allow hotalloc cold mistyped-column error path, runs at most once per query
		return nil, fmt.Errorf("dsm: column %q is not a string column", c.Def.Name)
	}
	for _, p := range pos {
		dst = append(dst, sv.Str(int(p)))
	}
	return dst, nil
}

// CodeAt reads the unsigned dictionary code at position i of an
// encoded column — the value the §3.1 predicate re-mapping compares.
func CodeAt(c *Column, i int) int64 { return codeOf(c, i) }

// CodeWrap returns the modulus that undoes the signed storage of a
// column's code vector (0 when the stored value is already unsigned):
// a negative stored value v decodes to v + CodeWrap. The single source
// of the wraparound invariant, shared by every code reader.
func CodeWrap(c *Column) int64 {
	switch c.Vec.Type() {
	case bat.TI8:
		return 1 << 8
	case bat.TI16:
		return 1 << 16
	}
	return 0
}

// codeOf reads the unsigned dictionary code at position i.
func codeOf(c *Column, i int) int64 {
	v := c.Vec.Int(i)
	if v < 0 {
		v += CodeWrap(c)
	}
	return v
}

package dsm

import (
	"bytes"
	"encoding/binary"
	"testing"

	"monetlite/internal/bat"
)

// FuzzSelectRangePos checks the positional range-select kernel, at
// every stored width, against a materializing oracle that re-reads the
// column through the generic Vector.Int accessor:
//
//   - exactly the positions whose value lies in [lo, hi] are emitted;
//   - positions come out ascending, restricted to [from, to);
//   - the kernel appends to (and returns) the caller's buffer — an
//     existing prefix must survive untouched.
func FuzzSelectRangePos(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, int64(-10), int64(10), uint8(0), uint8(255), uint8(2))
	f.Add([]byte{}, int64(0), int64(0), uint8(0), uint8(0), uint8(1))
	f.Add([]byte{0x80, 0x7f, 0x00, 0xff}, int64(-128), int64(127), uint8(0), uint8(4), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, lo, hi int64, fromRaw, toRaw, width uint8) {
		if lo > hi {
			lo, hi = hi, lo
		}
		var vec bat.Vector
		switch width % 4 {
		case 0:
			vals := make([]int8, len(data))
			for i, b := range data {
				vals[i] = int8(b)
			}
			vec = bat.NewI8(vals)
		case 1:
			vals := make([]int16, len(data)/2)
			for i := range vals {
				vals[i] = int16(binary.LittleEndian.Uint16(data[2*i:]))
			}
			vec = bat.NewI16(vals)
		case 2:
			vals := make([]int32, len(data)/4)
			for i := range vals {
				vals[i] = int32(binary.LittleEndian.Uint32(data[4*i:]))
			}
			vec = bat.NewI32(vals)
		default:
			vals := make([]int64, len(data)/8)
			for i := range vals {
				vals[i] = int64(binary.LittleEndian.Uint64(data[8*i:]))
			}
			vec = bat.NewI64(vals)
		}
		n := vec.Len()
		from := 0
		if n > 0 {
			from = int(fromRaw) % (n + 1)
		}
		to := from
		if n > from {
			to = from + int(toRaw)%(n-from+1)
		}
		col := &Column{Def: ColumnDef{Name: "v", Type: LInt}, Vec: vec}

		// Materializing oracle over the generic accessor.
		var want []int32
		for i := from; i < to; i++ {
			if x := vec.Int(i); x >= lo && x <= hi {
				want = append(want, int32(i))
			}
		}

		prefix := []int32{-7, -9}
		dst := make([]int32, len(prefix), len(prefix)+len(want))
		copy(dst, prefix)
		got := SelectRangePos(col, lo, hi, from, to, dst)

		if len(got) != len(prefix)+len(want) {
			t.Fatalf("SelectRangePos emitted %d positions, oracle %d (width %d, [%d,%d], rows [%d,%d))",
				len(got)-len(prefix), len(want), vec.Width(), lo, hi, from, to)
		}
		for i, p := range prefix {
			if got[i] != p {
				t.Fatalf("caller's buffer prefix clobbered: %v", got[:len(prefix)])
			}
		}
		for i, p := range want {
			if got[len(prefix)+i] != p {
				t.Fatalf("position %d: got %d, oracle %d", i, got[len(prefix)+i], p)
			}
		}
	})
}

// FuzzSelectCodePos checks the positional dictionary-code select
// kernel against a materializing oracle that re-reads every position
// through codeOf (the single source of the wraparound invariant):
//
//   - exactly the positions in [from, to) whose unsigned code equals
//     the probe are emitted, ascending;
//   - the narrow I8/I16 fast paths (which pre-narrow the probe and
//     compare at machine width) agree with the generic decode;
//   - the kernel appends to the caller's buffer — an existing prefix
//     must survive untouched.
func FuzzSelectCodePos(f *testing.F) {
	f.Add([]byte{1, 2, 3, 2, 1}, int64(2), uint8(0), uint8(255), uint8(0))
	f.Add([]byte{}, int64(0), uint8(0), uint8(0), uint8(1))
	f.Add([]byte{0xff, 0x00, 0x80, 0xff}, int64(255), uint8(0), uint8(4), uint8(0))
	f.Add([]byte{0x01, 0xff, 0x01, 0xff}, int64(0xff01), uint8(0), uint8(2), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, code int64, fromRaw, toRaw, width uint8) {
		var vec bat.Vector
		switch width % 4 {
		case 0:
			vals := make([]int8, len(data))
			for i, b := range data {
				vals[i] = int8(b)
			}
			vec = bat.NewI8(vals)
		case 1:
			vals := make([]int16, len(data)/2)
			for i := range vals {
				vals[i] = int16(binary.LittleEndian.Uint16(data[2*i:]))
			}
			vec = bat.NewI16(vals)
		case 2:
			vals := make([]int32, len(data)/4)
			for i := range vals {
				vals[i] = int32(binary.LittleEndian.Uint32(data[4*i:]))
			}
			vec = bat.NewI32(vals)
		default:
			vals := make([]int64, len(data)/8)
			for i := range vals {
				vals[i] = int64(binary.LittleEndian.Uint64(data[8*i:]))
			}
			vec = bat.NewI64(vals)
		}
		n := vec.Len()
		from := 0
		if n > 0 {
			from = int(fromRaw) % (n + 1)
		}
		to := from
		if n > from {
			to = from + int(toRaw)%(n-from+1)
		}
		col := &Column{Def: ColumnDef{Name: "v", Type: LString}, Vec: vec}

		// Probe codes are dictionary indexes: clamp into the width's
		// unsigned range, matching the kernel's contract (the narrow
		// fast paths pre-narrow the probe).
		switch vec.Type() {
		case bat.TI8:
			code &= 0xff
		case bat.TI16:
			code &= 0xffff
		}

		// Materializing oracle over the shared wraparound decoder.
		var want []int32
		for i := from; i < to; i++ {
			if codeOf(col, i) == code {
				want = append(want, int32(i))
			}
		}

		prefix := []int32{-3, -5}
		dst := make([]int32, len(prefix), len(prefix)+len(want))
		copy(dst, prefix)
		got := SelectCodePos(col, code, from, to, dst)

		if len(got) != len(prefix)+len(want) {
			t.Fatalf("SelectCodePos emitted %d positions, oracle %d (width %d, code %d, rows [%d,%d))",
				len(got)-len(prefix), len(want), vec.Width(), code, from, to)
		}
		for i, p := range prefix {
			if got[i] != p {
				t.Fatalf("caller's buffer prefix clobbered: %v", got[:len(prefix)])
			}
		}
		for i, p := range want {
			if got[len(prefix)+i] != p {
				t.Fatalf("position %d: got %d, oracle %d", i, got[len(prefix)+i], p)
			}
		}
	})
}

// FuzzSelectBitsPos checks the bitmap-drain kernel against a
// bit-by-bit loop:
//
//   - exactly the positions in [from, to) whose bit is set are emitted,
//     ascending — including unaligned word edges at either end and
//     words zeroed by the zero mask (the kernel skips those whole);
//   - the kernel appends to the caller's buffer — an existing prefix
//     must survive untouched.
func FuzzSelectBitsPos(f *testing.F) {
	f.Add([]byte{0xff, 0, 0, 0, 0, 0, 0, 0x80}, uint16(0), uint16(64), uint8(0))
	f.Add([]byte{}, uint16(0), uint16(0), uint8(0))
	f.Add(bytes.Repeat([]byte{0xff}, 24), uint16(3), uint16(187), uint8(0))
	f.Add(make([]byte, 24), uint16(3), uint16(190), uint8(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 9, 9, 9, 9, 9, 9, 9, 9},
		uint16(65), uint16(127), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, fromRaw, toRaw uint16, zeroMask uint8) {
		words := make([]uint64, len(data)/8)
		for i := range words {
			if zeroMask&(1<<(i%8)) == 0 {
				words[i] = binary.LittleEndian.Uint64(data[8*i:])
			}
		}
		n := 64 * len(words)
		from := int(fromRaw) % (n + 1)
		to := from + int(toRaw)%(n-from+1)

		var want []int32
		for p := from; p < to; p++ {
			if words[p/64]&(1<<(p%64)) != 0 {
				want = append(want, int32(p))
			}
		}

		prefix := []int32{-2, -4}
		dst := make([]int32, len(prefix), len(prefix)+len(want))
		copy(dst, prefix)
		got := SelectBitsPos(words, from, to, dst)

		if len(got) != len(prefix)+len(want) {
			t.Fatalf("SelectBitsPos emitted %d positions, bit loop %d (rows [%d,%d) of %d)",
				len(got)-len(prefix), len(want), from, to, n)
		}
		for i, p := range prefix {
			if got[i] != p {
				t.Fatalf("caller's buffer prefix clobbered: %v", got[:len(prefix)])
			}
		}
		for i, p := range want {
			if got[len(prefix)+i] != p {
				t.Fatalf("position %d: got %d, bit loop %d", i, got[len(prefix)+i], p)
			}
		}
	})
}

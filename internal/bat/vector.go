package bat

import (
	"fmt"
	"math"

	"monetlite/internal/memsim"
)

// Type enumerates the physical column types of the storage layer.
type Type uint8

// Physical column types. TVoid is the virtual-OID column of §3.1:
// dense ascending OIDs computed on the fly, occupying no storage.
const (
	TVoid Type = iota
	TI8
	TI16
	TI32
	TI64
	TF64
	TOid
	TStr
)

func (t Type) String() string {
	switch t {
	case TVoid:
		return "void"
	case TI8:
		return "i8"
	case TI16:
		return "i16"
	case TI32:
		return "i32"
	case TI64:
		return "i64"
	case TF64:
		return "f64"
	case TOid:
		return "oid"
	case TStr:
		return "str"
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// Width returns the stored bytes per value of the type (0 for void).
func (t Type) Width() int {
	switch t {
	case TVoid:
		return 0
	case TI8:
		return 1
	case TI16:
		return 2
	case TI32, TOid:
		return 4
	case TI64, TF64:
		return 8
	case TStr:
		return 16 // pointer + length; var-sized heap not counted
	}
	return 0
}

// Vector is one column of a BAT. Implementations are dense arrays of a
// single physical type; Int is the universal accessor used by
// type-agnostic operators (dictionary codes and OIDs widen losslessly).
type Vector interface {
	Len() int
	Width() int // stored bytes per value (0 for void)
	Type() Type
	Int(i int) int64            // value at position i, widened
	Addr(i int) uint64          // simulated address of value i (0 if unbound or void)
	Bind(s *memsim.Sim)         // allocate simulated address space
	Touch(s *memsim.Sim, i int) // mirror a read of value i into the simulator
}

// VoidVec is a virtual-OID column: value(i) = Seq + i, no storage.
// Positional lookup on a void column eliminates join cost (§3.1).
type VoidVec struct {
	N   int
	Seq Oid // seqbase: first OID
}

// NewVoid returns a void column of n OIDs starting at seq.
func NewVoid(n int, seq Oid) *VoidVec { return &VoidVec{N: n, Seq: seq} }

func (v *VoidVec) Len() int               { return v.N }
func (v *VoidVec) Width() int             { return 0 }
func (v *VoidVec) Type() Type             { return TVoid }
func (v *VoidVec) Int(i int) int64        { return int64(v.Seq) + int64(i) }
func (v *VoidVec) Addr(int) uint64        { return 0 }
func (v *VoidVec) Bind(*memsim.Sim)       {}
func (v *VoidVec) Touch(*memsim.Sim, int) {}

// Position returns the array position holding OID o, and whether the
// OID falls inside the column's dense range. This is the positional
// lookup that replaces hash-lookup for void join columns.
func (v *VoidVec) Position(o Oid) (int, bool) {
	i := int(int64(o) - int64(v.Seq))
	return i, i >= 0 && i < v.N
}

// denseVec carries the simulated-address plumbing shared by all stored
// vectors.
type denseVec struct {
	base  uint64
	width int
}

func (d *denseVec) bind(s *memsim.Sim, n int) {
	if s == nil || d.base != 0 {
		return
	}
	d.base = s.Alloc(n * d.width)
}

func (d *denseVec) addr(i int) uint64 {
	if d.base == 0 {
		return 0
	}
	return d.base + uint64(i)*uint64(d.width)
}

func (d *denseVec) touch(s *memsim.Sim, i int) {
	if s != nil && d.base != 0 {
		s.Read(d.addr(i), d.width)
	}
}

// I8Vec is a stored column of 1-byte integers (byte encodings).
type I8Vec struct {
	denseVec
	V []int8
}

// NewI8 wraps a 1-byte column.
func NewI8(v []int8) *I8Vec { return &I8Vec{denseVec{width: 1}, v} }

func (c *I8Vec) Len() int                   { return len(c.V) }
func (c *I8Vec) Width() int                 { return 1 }
func (c *I8Vec) Type() Type                 { return TI8 }
func (c *I8Vec) Int(i int) int64            { return int64(c.V[i]) }
func (c *I8Vec) Addr(i int) uint64          { return c.addr(i) }
func (c *I8Vec) Bind(s *memsim.Sim)         { c.bind(s, len(c.V)) }
func (c *I8Vec) Touch(s *memsim.Sim, i int) { c.touch(s, i) }

// I16Vec is a stored column of 2-byte integers.
type I16Vec struct {
	denseVec
	V []int16
}

// NewI16 wraps a 2-byte column.
func NewI16(v []int16) *I16Vec { return &I16Vec{denseVec{width: 2}, v} }

func (c *I16Vec) Len() int                   { return len(c.V) }
func (c *I16Vec) Width() int                 { return 2 }
func (c *I16Vec) Type() Type                 { return TI16 }
func (c *I16Vec) Int(i int) int64            { return int64(c.V[i]) }
func (c *I16Vec) Addr(i int) uint64          { return c.addr(i) }
func (c *I16Vec) Bind(s *memsim.Sim)         { c.bind(s, len(c.V)) }
func (c *I16Vec) Touch(s *memsim.Sim, i int) { c.touch(s, i) }

// I32Vec is a stored column of 4-byte integers.
type I32Vec struct {
	denseVec
	V []int32
}

// NewI32 wraps a 4-byte column.
func NewI32(v []int32) *I32Vec { return &I32Vec{denseVec{width: 4}, v} }

func (c *I32Vec) Len() int                   { return len(c.V) }
func (c *I32Vec) Width() int                 { return 4 }
func (c *I32Vec) Type() Type                 { return TI32 }
func (c *I32Vec) Int(i int) int64            { return int64(c.V[i]) }
func (c *I32Vec) Addr(i int) uint64          { return c.addr(i) }
func (c *I32Vec) Bind(s *memsim.Sim)         { c.bind(s, len(c.V)) }
func (c *I32Vec) Touch(s *memsim.Sim, i int) { c.touch(s, i) }

// I64Vec is a stored column of 8-byte integers.
type I64Vec struct {
	denseVec
	V []int64
}

// NewI64 wraps an 8-byte column.
func NewI64(v []int64) *I64Vec { return &I64Vec{denseVec{width: 8}, v} }

func (c *I64Vec) Len() int                   { return len(c.V) }
func (c *I64Vec) Width() int                 { return 8 }
func (c *I64Vec) Type() Type                 { return TI64 }
func (c *I64Vec) Int(i int) int64            { return c.V[i] }
func (c *I64Vec) Addr(i int) uint64          { return c.addr(i) }
func (c *I64Vec) Bind(s *memsim.Sim)         { c.bind(s, len(c.V)) }
func (c *I64Vec) Touch(s *memsim.Sim, i int) { c.touch(s, i) }

// F64Vec is a stored column of 8-byte floats.
type F64Vec struct {
	denseVec
	V []float64
}

// NewF64 wraps a float column.
func NewF64(v []float64) *F64Vec { return &F64Vec{denseVec{width: 8}, v} }

func (c *F64Vec) Len() int   { return len(c.V) }
func (c *F64Vec) Width() int { return 8 }
func (c *F64Vec) Type() Type { return TF64 }

// Int returns the raw IEEE-754 bits so type-agnostic operators can
// still hash/compare; use Float for the numeric value.
func (c *F64Vec) Int(i int) int64            { return int64(math.Float64bits(c.V[i])) }
func (c *F64Vec) Float(i int) float64        { return c.V[i] }
func (c *F64Vec) Addr(i int) uint64          { return c.addr(i) }
func (c *F64Vec) Bind(s *memsim.Sim)         { c.bind(s, len(c.V)) }
func (c *F64Vec) Touch(s *memsim.Sim, i int) { c.touch(s, i) }

// StrVec is a stored column of strings. It exists for the logical
// appearance of Figure 4; low-cardinality string columns should be
// dictionary-encoded with Encode, which replaces them by an I8/I16
// code column plus a small decoding BAT.
type StrVec struct {
	denseVec
	V []string
}

// NewStrs wraps a string column.
func NewStrs(v []string) *StrVec { return &StrVec{denseVec{width: 16}, v} }

func (c *StrVec) Len() int   { return len(c.V) }
func (c *StrVec) Width() int { return 16 }
func (c *StrVec) Type() Type { return TStr }

// Int returns the position; string payloads have no integer widening.
func (c *StrVec) Int(i int) int64            { return int64(i) }
func (c *StrVec) Str(i int) string           { return c.V[i] }
func (c *StrVec) Addr(i int) uint64          { return c.addr(i) }
func (c *StrVec) Bind(s *memsim.Sim)         { c.bind(s, len(c.V)) }
func (c *StrVec) Touch(s *memsim.Sim, i int) { c.touch(s, i) }

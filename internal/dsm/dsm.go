// Package dsm implements the Decomposed Storage Model layer of §3.1
// ([CK85], Figure 4): relational tables are stored as one BAT per
// column with a virtual-OID (void) head, low-cardinality string
// columns are byte-encoded into 1- or 2-byte code columns plus a
// decoding BAT, and tuple reconstruction is a positional (void) join
// that costs nothing beyond the value fetch.
//
// The package is storage only: tables, columns and their encodings,
// plus the into-caller-buffer select, refilter and gather kernels that
// the engine's pipelines (internal/engine) run over them. Queries go
// through the engine.
package dsm

import (
	"fmt"
	"sync"

	"monetlite/internal/bat"
	"monetlite/internal/memsim"
	"monetlite/internal/scan"
)

// LogicalType is the schema-level type of a column.
type LogicalType uint8

// Logical column types of the relational front-end.
const (
	LInt LogicalType = iota
	LFloat
	LString
	LDate // stored as days-since-epoch in an int32 column
)

func (t LogicalType) String() string {
	switch t {
	case LInt:
		return "int"
	case LFloat:
		return "float"
	case LString:
		return "string"
	case LDate:
		return "date"
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// ColumnDef is one column of a schema.
type ColumnDef struct {
	Name string
	Type LogicalType
}

// Schema describes a relational table.
type Schema struct {
	Name string
	Cols []ColumnDef
}

// Col returns the position of a named column.
func (s Schema) Col(name string) (int, error) {
	for i, c := range s.Cols {
		if c.Name == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("dsm: %s has no column %q", s.Name, name)
}

// RowWidth returns the width of one N-ary (slotted) record of this
// schema, the "width of relational tuple" of Figure 4: 8 bytes per
// numeric field, 16 per string reference plus an assumed 24-byte
// average payload.
func (s Schema) RowWidth() int {
	w := 0
	for _, c := range s.Cols {
		switch c.Type {
		case LString:
			w += 16 + 24
		default:
			w += 8
		}
	}
	return w
}

// Column is the physical store of one decomposed column: a vector
// (possibly a 1-/2-byte code vector) plus the string dictionary when
// encoded, and for an integer or date column its value range.
type Column struct {
	Def ColumnDef
	Vec bat.Vector
	Enc *bat.Encoding // non-nil when Vec holds dictionary codes

	lo, hi int64 // LInt/LDate: the true min and max (ranged only)
	ranged bool

	idxMu sync.Mutex
	idx   any // cached access-path index (see IndexCache)
}

// IndexCache returns the column's cached access-path index (e.g. the
// engine's CSS-tree), building and storing it on first use. Columns
// are immutable once decomposed, so the cache never invalidates — and
// because it lives on the column, dropping a table frees its indexes.
func (c *Column) IndexCache(build func() (any, error)) (any, error) {
	c.idxMu.Lock()
	defer c.idxMu.Unlock()
	if c.idx != nil {
		return c.idx, nil
	}
	v, err := build()
	if err != nil {
		return nil, err
	}
	c.idx = v
	return v, nil
}

// Range returns the smallest and largest value the column's integer
// view (Vec.Int) can return, and whether it knows them: the min and max
// Decompose recorded for an integer or date column, or [0, len(Dict))
// for dictionary codes. Empty columns, float and unencoded string
// columns have no range.
func (c *Column) Range() (lo, hi int64, ok bool) {
	if c.Enc != nil {
		return 0, int64(len(c.Enc.Dict)) - 1, len(c.Enc.Dict) > 0
	}
	return c.lo, c.hi, c.ranged
}

// Width returns the stored bytes per value — 1 for an encoded
// shipmode column, as in Figure 4.
func (c *Column) Width() int { return c.Vec.Width() }

// Table is a vertically decomposed relational table.
type Table struct {
	Schema Schema
	N      int
	Head   *bat.VoidVec // the shared virtual-OID head
	cols   []*Column
}

// Column returns the store of a named column.
func (t *Table) Column(name string) (*Column, error) {
	i, err := t.Schema.Col(name)
	if err != nil {
		return nil, err
	}
	return t.cols[i], nil
}

// Columns returns all column stores in schema order.
func (t *Table) Columns() []*Column { return t.cols }

// Bind allocates simulated addresses for every column.
func (t *Table) Bind(sim *memsim.Sim) {
	for _, c := range t.cols {
		c.Vec.Bind(sim)
	}
}

// BUNWidth sums the stored widths of all columns: the total bytes per
// logical tuple after decomposition and encoding.
func (t *Table) BUNWidth() int {
	w := 0
	for _, c := range t.cols {
		w += c.Width()
	}
	return w
}

// ScanColumnStats runs the §3.1 motivating comparison for one column
// of this table: the simulated cost of aggregating that column when
// stored (a) inside N-ary records of the schema's full row width,
// (b) as an 8-byte BUN column, and (c) in its actual decomposed width
// (1 byte for an encoded shipmode). It returns the three stat sets,
// all zero for a table without rows.
func (t *Table) ScanColumnStats(m memsim.Machine, column string) (nsm, bun, dsmStats memsim.Stats, err error) {
	c, err := t.Column(column)
	if err != nil || t.N == 0 {
		return nsm, bun, dsmStats, err
	}
	width := c.Width()
	if width == 0 {
		width = 1
	}
	nsm, err = scan.BUNScan(m, t.N, t.Schema.RowWidth())
	if err != nil {
		return nsm, bun, dsmStats, err
	}
	bun, err = scan.BUNScan(m, t.N, bat.PairSize)
	if err != nil {
		return nsm, bun, dsmStats, err
	}
	dsmStats, err = scan.BUNScan(m, t.N, width)
	return nsm, bun, dsmStats, err
}

// Decompose vertically fragments row-major records into a Table. Rows
// are []any with int64 (LInt), float64 (LFloat), string (LString) and
// int32 (LDate) fields matching the schema.
func Decompose(schema Schema, rows [][]any) (*Table, error) {
	n := len(rows)
	t := &Table{Schema: schema, N: n, Head: bat.NewVoid(n, 0)}
	for ci, def := range schema.Cols {
		col := &Column{Def: def}
		switch def.Type {
		case LInt:
			vals := make([]int64, n)
			for ri, row := range rows {
				v, ok := row[ci].(int64)
				if !ok {
					return nil, fmt.Errorf("dsm: %s.%s row %d: want int64, got %T", schema.Name, def.Name, ri, row[ci])
				}
				vals[ri] = v
			}
			col.Vec, col.lo, col.hi = shrinkInts(vals)
			col.ranged = n > 0
		case LDate:
			vals := make([]int32, n)
			for ri, row := range rows {
				v, ok := row[ci].(int32)
				if !ok {
					return nil, fmt.Errorf("dsm: %s.%s row %d: want int32 date, got %T", schema.Name, def.Name, ri, row[ci])
				}
				vals[ri] = v
				if ri == 0 || int64(v) < col.lo {
					col.lo = int64(v)
				}
				if ri == 0 || int64(v) > col.hi {
					col.hi = int64(v)
				}
			}
			col.Vec = bat.NewI32(vals)
			col.ranged = n > 0
		case LFloat:
			vals := make([]float64, n)
			for ri, row := range rows {
				v, ok := row[ci].(float64)
				if !ok {
					return nil, fmt.Errorf("dsm: %s.%s row %d: want float64, got %T", schema.Name, def.Name, ri, row[ci])
				}
				vals[ri] = v
			}
			col.Vec = bat.NewF64(vals)
		case LString:
			vals := make([]string, n)
			for ri, row := range rows {
				v, ok := row[ci].(string)
				if !ok {
					return nil, fmt.Errorf("dsm: %s.%s row %d: want string, got %T", schema.Name, def.Name, ri, row[ci])
				}
				vals[ri] = v
			}
			enc, err := bat.Encode(vals)
			if err == nil {
				col.Vec = enc.Codes
				col.Enc = enc
			} else {
				col.Vec = bat.NewStrs(vals)
			}
		default:
			return nil, fmt.Errorf("dsm: %s.%s: unknown type %v", schema.Name, def.Name, def.Type)
		}
		t.cols = append(t.cols, col)
	}
	return t, nil
}

// shrinkInts stores an int64 column in the narrowest fixed width that
// holds its domain — the §3.1 byte-encoding idea applied to integers —
// and returns the values' min and max (0, 0 for no values) from the
// same scan.
func shrinkInts(vals []int64) (vec bat.Vector, minV, maxV int64) {
	if len(vals) > 0 {
		minV, maxV = vals[0], vals[0]
	}
	for _, v := range vals {
		minV, maxV = min(minV, v), max(maxV, v)
	}
	// The width test needs the range with 0 in it.
	lo, hi := min(minV, 0), max(maxV, 0)
	switch {
	case lo >= -128 && hi < 128:
		out := make([]int8, len(vals))
		for i, v := range vals {
			out[i] = int8(v)
		}
		return bat.NewI8(out), minV, maxV
	case lo >= -32768 && hi < 32768:
		out := make([]int16, len(vals))
		for i, v := range vals {
			out[i] = int16(v)
		}
		return bat.NewI16(out), minV, maxV
	case lo >= -(1<<31) && hi < 1<<31:
		out := make([]int32, len(vals))
		for i, v := range vals {
			out[i] = int32(v)
		}
		return bat.NewI32(out), minV, maxV
	default:
		out := make([]int64, len(vals))
		copy(out, vals)
		return bat.NewI64(out), minV, maxV
	}
}

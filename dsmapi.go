package monetlite

import (
	"monetlite/internal/bat"
	"monetlite/internal/dsm"
	"monetlite/internal/workload"
)

// ---------------------------------------------------------------------
// The DSM storage layer (§3.1, Figure 4), re-exported for building
// the decomposed tables that Query plans run over.

// LogicalType is the schema-level type of a relational column.
type LogicalType = dsm.LogicalType

// Logical column types.
const (
	LInt    = dsm.LInt
	LFloat  = dsm.LFloat
	LString = dsm.LString
	LDate   = dsm.LDate
)

// ColumnDef is one column of a relational schema.
type ColumnDef = dsm.ColumnDef

// Schema describes a relational table.
type Schema = dsm.Schema

// Table is a vertically decomposed relational table: one BAT per
// column, virtual-OID heads, byte-encoded low-cardinality strings.
type Table = dsm.Table

// Decompose vertically fragments row-major records into a Table.
func Decompose(schema Schema, rows [][]any) (*Table, error) { return dsm.Decompose(schema, rows) }

// ItemSchema is the Figure-4 "Item" table schema.
func ItemSchema() Schema { return dsm.ItemSchema() }

// ItemTable generates and decomposes n deterministic Item rows.
func ItemTable(n int, seed uint64) (*Table, error) { return dsm.ItemTable(n, seed) }

// Items generates the raw Figure-4 rows (for oracles and displays).
func Items(n int, seed uint64) []workload.Item { return workload.Items(n, seed) }

// Item is one raw row of the Figure-4 table.
type Item = workload.Item

// Part is one raw row of the Part dimension table (id joins
// item.part).
type Part = workload.Part

// Parts generates the raw Part dimension rows (for oracles and
// displays).
func Parts(n int, seed uint64) []Part { return workload.Parts(n, seed) }

// Categories returns the low-cardinality part-category domain.
func Categories() []string { return workload.Categories }

// Encoding is a 1-/2-byte dictionary encoding of a string column.
type Encoding = bat.Encoding

// EncodeStrings dictionary-encodes a low-cardinality string column
// (§3.1 byte encodings).
func EncodeStrings(values []string) (*Encoding, error) { return bat.Encode(values) }

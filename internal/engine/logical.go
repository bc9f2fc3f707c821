// Package engine is the cost-model-driven BAT-algebra query engine:
// the subsystem that composes the repo's operator pieces — DSM column
// selections (internal/sel access paths), radix-cluster/join
// (internal/core), grouping (internal/agg) — into end-to-end queries.
//
// Queries are logical plan DAGs (Scan, Select, Project, Join,
// GroupAggregate, OrderBy, Limit) over dsm.Tables. Plan lowers a DAG
// into a physical operator tree, consulting the paper's analytical
// cost models (internal/costmodel, §2 and §3.4) for every physical
// choice: the selection access path (scan-select vs CSS-tree), the
// join algorithm and radix bits (the §3.4.4 Plan/PlanAuto machinery),
// and the grouping algorithm (hash while the table fits the caches,
// radix-partitioned beyond, §3.2 and §4).
//
// Selections, projections and aggregations execute as cache-resident
// pipelines over table-backed sources (pipeline.go); only breakers —
// joins, OrderBy, the aggregate merge or partition fold — materialize,
// once. Every physical plan prints itself via Explain (operator tree
// plus predicted cost) and accepts an optional *memsim.Sim so
// predicted and simulated cost can be compared.
package engine

import (
	"fmt"
	"strings"

	"monetlite/internal/dsm"
)

// Node is one logical plan operator. Build the DAG bottom-up from a
// Scan and lower it with Plan.
type Node interface {
	logicalNode()
}

// ScanNode is the leaf: a full scan of a decomposed table.
type ScanNode struct {
	Table *dsm.Table
}

// SelectNode filters its input by a predicate.
type SelectNode struct {
	Input Node
	Pred  Predicate
}

// ProjectNode materializes the named columns of its input.
type ProjectNode struct {
	Input Node
	Cols  []string
}

// JoinNode equi-joins Left.LeftCol = Right.RightCol. Join columns must
// be integer or date columns with values in the uint32 domain — the
// BUN layout of the paper's join kernels.
type JoinNode struct {
	Left, Right       Node
	LeftCol, RightCol string
}

// GroupAggNode groups by Key and aggregates Measure per group,
// producing columns key, count, sum, min, max. Key must be a string
// (usually byte-encoded, §3.1) or integer column.
type GroupAggNode struct {
	Input   Node
	Key     string
	Measure Expr
}

// OrderByNode sorts its input by a column.
type OrderByNode struct {
	Input Node
	Col   string
	Desc  bool
}

// LimitNode keeps the first N rows of its input.
type LimitNode struct {
	Input Node
	N     int
}

func (*ScanNode) logicalNode()     {}
func (*SelectNode) logicalNode()   {}
func (*ProjectNode) logicalNode()  {}
func (*JoinNode) logicalNode()     {}
func (*GroupAggNode) logicalNode() {}
func (*OrderByNode) logicalNode()  {}
func (*LimitNode) logicalNode()    {}

// ---------------------------------------------------------------------
// Predicates.

// Predicate is a selection condition on one column.
type Predicate interface {
	predicate()
	String() string
}

// RangePred selects rows whose integer/date column value lies in
// [Lo, Hi].
type RangePred struct {
	Col    string
	Lo, Hi int64
}

// EqStringPred selects rows whose string column equals Value. On an
// encoded column the predicate is re-mapped to a byte-code comparison
// (§3.1), so the scan never decodes.
type EqStringPred struct {
	Col   string
	Value string
}

func (RangePred) predicate()    {}
func (EqStringPred) predicate() {}

func (p RangePred) String() string {
	return fmt.Sprintf("%s in [%d,%d]", p.Col, p.Lo, p.Hi)
}

func (p EqStringPred) String() string {
	return fmt.Sprintf("%s = %q", p.Col, p.Value)
}

// ---------------------------------------------------------------------
// Measure expressions.

// Expr is a per-tuple arithmetic expression over numeric columns,
// evaluated during aggregation (e.g. price * (1 - discnt)).
type Expr interface {
	expr()
	String() string
	// columns appends the column names the expression reads.
	columns(dst []string) []string
}

// ColExpr reads a numeric (float, int or date) column.
type ColExpr struct{ Name string }

// ConstExpr is a numeric literal.
type ConstExpr struct{ V float64 }

// BinExpr applies Op ('+', '-', '*', '/') to two sub-expressions.
type BinExpr struct {
	Op   byte
	L, R Expr
}

func (ColExpr) expr()   {}
func (ConstExpr) expr() {}
func (BinExpr) expr()   {}

func (e ColExpr) String() string   { return e.Name }
func (e ConstExpr) String() string { return trimFloat(e.V) }
func (e BinExpr) String() string {
	return fmt.Sprintf("(%s %c %s)", e.L, e.Op, e.R)
}

func trimFloat(v float64) string {
	s := fmt.Sprintf("%g", v)
	return s
}

func (e ColExpr) columns(dst []string) []string   { return append(dst, e.Name) }
func (e ConstExpr) columns(dst []string) []string { return dst }
func (e BinExpr) columns(dst []string) []string {
	return e.R.columns(e.L.columns(dst))
}

// validateExpr checks a measure expression at plan time, so malformed
// expressions surface as errors from Plan/Run instead of panicking
// during evaluation on a long-running server: every node must be a
// known expression type, every operator one of + - * /, and no
// sub-expression nil. After validation, bindExpr resolves every
// ColExpr, so evalVec's defensive panic is unreachable from the public
// API.
func validateExpr(e Expr) error {
	switch x := e.(type) {
	case nil:
		return fmt.Errorf("engine: nil measure sub-expression")
	case ColExpr:
		if x.Name == "" {
			return fmt.Errorf("engine: measure column reference with empty name")
		}
		return nil
	case ConstExpr:
		return nil
	case BinExpr:
		switch x.Op {
		case '+', '-', '*', '/':
		default:
			return fmt.Errorf("engine: unknown operator %q in measure expression", string(x.Op))
		}
		if err := validateExpr(x.L); err != nil {
			return err
		}
		return validateExpr(x.R)
	default:
		return fmt.Errorf("engine: unsupported measure expression %T", e)
	}
}

// boundExpr is a ColExpr resolved to an operand-column index.
type boundExpr struct {
	ColExpr
	idx int
}

// bindExpr rewrites every ColExpr into a boundExpr indexing the
// gathered operand columns in first-appearance order.
func bindExpr(e Expr, order map[string]int) Expr {
	switch x := e.(type) {
	case ColExpr:
		i, ok := order[x.Name]
		if !ok {
			i = len(order)
			order[x.Name] = i
		}
		return boundExpr{ColExpr: x, idx: i}
	case BinExpr:
		return BinExpr{Op: x.Op, L: bindExpr(x.L, order), R: bindExpr(x.R, order)}
	default:
		return e
	}
}

// evalVec evaluates the bound measure e over the first n rows of the
// gathered operand vectors ops, one operator at a time over the whole
// vector — the X100 form of expression evaluation: one tight loop per
// BinExpr, no per-row interface dispatch. A node evaluated at depth d
// writes its result to the temporary tmp[d]; its right operand goes one
// deeper unless the left one is a bare column, which needs no
// temporary. A tree needs exprTemps(e) temporaries of n values; a bare
// column returns its operand vector itself. Every value is the same
// IEEE operation on the same operands as a row-at-a-time evaluation.
//
//monet:kernel
func evalVec(e Expr, ops, tmp [][]float64, n, d int) []float64 {
	switch x := e.(type) {
	case boundExpr:
		return ops[x.idx][:n]
	case ConstExpr:
		out := tmp[d][:n]
		for i := range out {
			out[i] = x.V
		}
		return out
	case BinExpr:
		rd := d + 1
		if _, col := x.L.(boundExpr); col {
			rd = d
		}
		l := evalVec(x.L, ops, tmp, n, d)
		r := evalVec(x.R, ops, tmp, n, rd)
		out := tmp[d][:n] // may be l or r itself: each row reads both before writing
		l, r = l[:len(out)], r[:len(out)]
		switch x.Op {
		case '+':
			for i := range out {
				out[i] = l[i] + r[i]
			}
		case '-':
			for i := range out {
				out[i] = l[i] - r[i]
			}
		case '*':
			for i := range out {
				out[i] = l[i] * r[i]
			}
		case '/':
			for i := range out {
				out[i] = l[i] / r[i]
			}
		default:
			panic("engine: unknown operator in a bound measure")
		}
		return out
	}
	panic("engine: unbound measure expression")
}

// exprTemps is the number of temporaries evalVec needs for e.
func exprTemps(e Expr) int {
	switch x := e.(type) {
	case ConstExpr:
		return 1
	case BinExpr:
		if _, col := x.L.(boundExpr); col {
			return max(1, exprTemps(x.R))
		}
		return max(1, exprTemps(x.L), 1+exprTemps(x.R))
	}
	return 0
}

// exprColumns returns the distinct columns an expression reads, in
// first-appearance order.
func exprColumns(e Expr) []string {
	seen := map[string]bool{}
	var out []string
	for _, c := range e.columns(nil) {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

// describeCols joins a projection list for display.
func describeCols(cols []string) string { return strings.Join(cols, ", ") }

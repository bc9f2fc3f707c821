package monetlite

import (
	"monetlite/internal/core"
	"monetlite/internal/dsm"
	"monetlite/internal/engine"
)

// ---------------------------------------------------------------------
// The BAT-algebra query engine (internal/engine), surfaced as a fluent
// builder: logical plans over decomposed tables, lowered by a physical
// planner that consults the paper's cost models for every choice —
// selection access path (§3.2), join strategy and radix bits (§3.4.4),
// grouping algorithm (§3.2) — and executed vector-at-a-time: every
// selection, projection and aggregation runs as a stage of a
// cache-resident pipeline over a table or a join.
//
//	res, err := monetlite.Query(items).
//		WhereRange("date1", 8500, 9499).
//		GroupBy("shipmode", monetlite.Mul(monetlite.Col("price"),
//			monetlite.Sub(monetlite.Const(1), monetlite.Col("discnt")))).
//		Run()

// QueryPlan is a lowered physical plan: Explain it, predict its cost,
// run it natively or instrumented.
type QueryPlan = engine.PhysicalPlan

// QueryResult is a fully materialized query result.
type QueryResult = engine.Result

// Pred is a selection condition on one column.
type Pred = engine.Predicate

// MeasureExpr is a per-tuple arithmetic expression over numeric
// columns, aggregated by GroupBy.
type MeasureExpr = engine.Expr

// Range selects rows whose integer/date column value lies in [lo, hi].
func Range(col string, lo, hi int64) Pred { return engine.RangePred{Col: col, Lo: lo, Hi: hi} }

// EqString selects rows whose string column equals value (re-mapped to
// a byte-code comparison on encoded columns, §3.1).
func EqString(col, value string) Pred { return engine.EqStringPred{Col: col, Value: value} }

// Col references a numeric column in a measure expression.
func Col(name string) MeasureExpr { return engine.ColExpr{Name: name} }

// Const is a numeric literal in a measure expression.
func Const(v float64) MeasureExpr { return engine.ConstExpr{V: v} }

// Add, Sub, Mul and Div combine measure expressions.
func Add(l, r MeasureExpr) MeasureExpr { return engine.BinExpr{Op: '+', L: l, R: r} }

// Sub subtracts r from l.
func Sub(l, r MeasureExpr) MeasureExpr { return engine.BinExpr{Op: '-', L: l, R: r} }

// Mul multiplies two measure expressions.
func Mul(l, r MeasureExpr) MeasureExpr { return engine.BinExpr{Op: '*', L: l, R: r} }

// Div divides l by r.
func Div(l, r MeasureExpr) MeasureExpr { return engine.BinExpr{Op: '/', L: l, R: r} }

// QueryBuilder accumulates a logical plan DAG bottom-up. Invalid
// plans (unknown columns, type mismatches) surface as errors from
// Plan/Explain/Run.
type QueryBuilder struct {
	root     engine.Node
	machine  Machine
	model    *CostModel
	opt      Options
	hasMach  bool
	noReplan bool
	replanF  float64
	aggStr   string
	analyze  bool
}

// Query starts a plan with a scan of a decomposed table.
func Query(t *Table) *QueryBuilder {
	return &QueryBuilder{root: &engine.ScanNode{Table: t}}
}

// On selects the machine profile whose cost models drive the physical
// planning (default: Origin2000, the paper's platform).
func (q *QueryBuilder) On(m Machine) *QueryBuilder {
	q.machine, q.hasMach = m, true
	return q
}

// CostModel plans with a fully configured cost model instead of a bare
// machine profile — typically a host-calibrated machine with learned
// per-operator-kind corrections applied (see NewCostModel and
// CostModel.WithResiduals). Overrides On.
func (q *QueryBuilder) CostModel(m *CostModel) *QueryBuilder {
	q.model = m
	return q
}

// Replan sets the mid-query re-optimization threshold: when the
// observed cardinality at a materialization boundary diverges from the
// planner's estimate by more than the given factor in either
// direction, the remaining operators are re-planned with the observed
// value. factor ≤ 0 disables replanning; 0 < factor ≤ 1 is rejected at
// Plan time; the default is 4. Results are byte-identical with
// replanning on or off — only strategy choices may change.
func (q *QueryBuilder) Replan(factor float64) *QueryBuilder {
	if factor <= 0 {
		q.noReplan, q.replanF = true, 0
	} else {
		q.noReplan, q.replanF = false, factor
	}
	return q
}

// Parallel bounds the worker goroutines of the whole native operator
// tree (0 = GOMAXPROCS, 1 = serial): every pipeline, join and
// group-aggregate splits its input into morsels and fans them out over
// one pool of this size, producing results byte-identical to a serial
// run. A CSS-tree select marks its position bitmap serially before
// the morsels drain it, and instrumented runs (RunSim) stay strictly
// serial regardless: the memory simulator models a single CPU.
func (q *QueryBuilder) Parallel(workers int) *QueryBuilder {
	q.opt = core.Options{Parallelism: workers}
	return q
}

// GroupStrategy forces the grouping algorithm for every GroupBy in the
// plan: "hash" (§3.2 single table), "sort" (sort/merge), or "radix"
// (radix-partition the feed on the low group-key bits so every
// partition's table is cache-resident, then aggregate partitions
// independently with no merge). The empty string (default) restores
// the cost-model choice. Results are byte-identical whichever strategy
// runs; only the memory-access pattern differs.
func (q *QueryBuilder) GroupStrategy(s string) *QueryBuilder {
	q.aggStr = s
	return q
}

// Analyze toggles EXPLAIN ANALYZE profiling for Run (default off):
// when on, the returned QueryResult carries a per-operator execution
// profile — actual wall time, rows in/out, cost-model-unit memory
// traffic, allocations, morsel counts and per-worker busy time — in
// Result.Profile, renderable via Profile.String() or exportable as a
// Chrome trace. Profiling is observation-only: results stay
// byte-identical with it on or off, at any worker count. When off, the
// engine pays no profiling cost at all (nil-check hooks only).
func (q *QueryBuilder) Analyze(on bool) *QueryBuilder {
	q.analyze = on
	return q
}

// Where filters by a predicate. Directly above the scan the planner
// chooses the access path (scan-select vs CSS-tree) by predicted cost.
func (q *QueryBuilder) Where(p Pred) *QueryBuilder {
	q.root = &engine.SelectNode{Input: q.root, Pred: p}
	return q
}

// WhereRange is Where(Range(col, lo, hi)).
func (q *QueryBuilder) WhereRange(col string, lo, hi int64) *QueryBuilder {
	return q.Where(Range(col, lo, hi))
}

// WhereString is Where(EqString(col, value)).
func (q *QueryBuilder) WhereString(col, value string) *QueryBuilder {
	return q.Where(EqString(col, value))
}

// JoinTable equi-joins the plan so far with a scan of another table on
// leftCol = rightCol. The planner resolves strategy, radix bits and
// passes via the §3.4.4 cost models at the estimated cardinality.
func (q *QueryBuilder) JoinTable(t *Table, leftCol, rightCol string) *QueryBuilder {
	q.root = &engine.JoinNode{
		Left: q.root, Right: &engine.ScanNode{Table: t},
		LeftCol: leftCol, RightCol: rightCol,
	}
	return q
}

// GroupBy groups by a key column and aggregates the measure expression
// per group, producing columns key, count, sum, min, max.
func (q *QueryBuilder) GroupBy(key string, measure MeasureExpr) *QueryBuilder {
	q.root = &engine.GroupAggNode{Input: q.root, Key: key, Measure: measure}
	return q
}

// Select projects (materializes) the named columns.
func (q *QueryBuilder) Select(cols ...string) *QueryBuilder {
	q.root = &engine.ProjectNode{Input: q.root, Cols: cols}
	return q
}

// OrderBy sorts by a column.
func (q *QueryBuilder) OrderBy(col string, desc bool) *QueryBuilder {
	q.root = &engine.OrderByNode{Input: q.root, Col: col, Desc: desc}
	return q
}

// Limit keeps the first n rows.
func (q *QueryBuilder) Limit(n int) *QueryBuilder {
	q.root = &engine.LimitNode{Input: q.root, N: n}
	return q
}

// Plan lowers the accumulated logical DAG into a physical plan.
func (q *QueryBuilder) Plan() (*QueryPlan, error) {
	cfg := engine.Config{Opt: q.opt, ForceGroup: q.aggStr,
		Model: q.model, NoReplan: q.noReplan, ReplanFactor: q.replanF}
	if q.hasMach {
		cfg.Machine = q.machine
	}
	return engine.Plan(q.root, cfg)
}

// Explain plans the query and renders the physical operator tree with
// per-operator cost-model predictions.
func (q *QueryBuilder) Explain() (string, error) {
	p, err := q.Plan()
	if err != nil {
		return "", err
	}
	return p.Explain(), nil
}

// Run plans and executes the query natively (morsel-driven parallel
// operators; see Parallel). With Analyze(true) the result carries an
// execution profile in Result.Profile.
func (q *QueryBuilder) Run() (*QueryResult, error) {
	p, err := q.Plan()
	if err != nil {
		return nil, err
	}
	if q.analyze {
		return p.RunProfiled(nil)
	}
	return p.Run(nil)
}

// RunSim plans and executes the query on a simulator of the plan's
// machine, for exact L1/L2/TLB miss counts: the same pipelines, run
// serially, with every column read mirrored into the simulator.
func (q *QueryBuilder) RunSim(sim *Sim) (*QueryResult, error) {
	p, err := q.Plan()
	if err != nil {
		return nil, err
	}
	return p.Run(sim)
}

// PartSchema is the "Part" dimension-table schema (id joins
// item.part).
func PartSchema() Schema { return dsm.PartSchema() }

// PartTable generates and decomposes n deterministic Part rows.
func PartTable(n int, seed uint64) (*Table, error) { return dsm.PartTable(n, seed) }

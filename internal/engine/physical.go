package engine

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"monetlite/internal/agg"
	"monetlite/internal/bat"
	"monetlite/internal/core"
	"monetlite/internal/costmodel"
	"monetlite/internal/dsm"
	"monetlite/internal/memsim"
	"monetlite/internal/sel"
)

// ---------------------------------------------------------------------
// Intermediates: before any projection or aggregation, the
// intermediate flowing between operators is table-backed: a set of
// aligned (table, OID-list) bindings — after a join, one binding per
// joined table, all the same length. Scans and pipeline breakers
// (Join, OrderBy) produce bindings; pipelines consume them and
// produce either bindings again or, through a Project or
// GroupAggregate sink, a materialized relation (Rel).

// binding is one table's contribution to a table-backed intermediate.
// A nil OID list means "all rows in storage order".
type binding struct {
	table *dsm.Table
	oids  []bat.Oid
}

// rows returns the binding's cardinality.
func (b binding) rows() int {
	if b.oids != nil {
		return len(b.oids)
	}
	return b.table.N
}

// pos returns the storage position of row i.
func (b binding) pos(i int) (int, error) {
	if b.oids == nil {
		return i, nil
	}
	p, ok := b.table.Head.Position(b.oids[i])
	if !ok {
		return 0, fmt.Errorf("engine: OID %d outside table %s", b.oids[i], b.table.Schema.Name)
	}
	return p, nil
}

// rowOid returns the table OID of row i.
func (b binding) rowOid(i int) bat.Oid {
	if b.oids == nil {
		return b.table.Head.Seq + bat.Oid(i)
	}
	return b.oids[i]
}

// Kind is the value kind of a materialized column.
type Kind uint8

// Materialized column kinds.
const (
	KInt Kind = iota
	KFloat
	KString
)

func (k Kind) String() string {
	switch k {
	case KInt:
		return "int"
	case KFloat:
		return "float"
	case KString:
		return "string"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// RelCol is one materialized column: exactly one of the value slices
// is populated, matching Kind.
type RelCol struct {
	Name   string
	Kind   Kind
	Ints   []int64
	Floats []float64
	Strs   []string
}

// Rel is a fully materialized result relation.
type Rel struct {
	Cols []RelCol
	N    int
}

// Col returns the index of a named column, or -1.
func (r *Rel) Col(name string) int {
	for i := range r.Cols {
		if r.Cols[i].Name == name {
			return i
		}
	}
	return -1
}

// fragment is the intermediate flowing between physical operators.
type fragment struct {
	binds []binding // table-backed form
	rel   *Rel      // materialized form (binds is nil)
}

func (f *fragment) rows() int {
	if f.rel != nil {
		return f.rel.N
	}
	if len(f.binds) == 0 {
		return 0
	}
	return f.binds[0].rows()
}

// execCtx carries the run-wide execution state.
type execCtx struct {
	sim     *memsim.Sim
	machine memsim.Machine
	model   *costmodel.Model
	opt     core.Options
	arenas  []*pipeArena // per-worker pipeline scratch, reused across morsels

	// Profiling hooks, both nil unless the run was started by
	// RunProfiled: prof collects the per-operator stats tree, spans
	// records per-worker work-unit spans. Every touch is guarded by a
	// nil check so the disabled path stays the exact pre-profiling
	// code (zero extra allocations).
	prof  *Profile
	spans *core.SpanRecorder
}

// physOp is one physical operator of a lowered plan.
type physOp interface {
	stageInfo
	exec(ctx *execCtx) (*fragment, error)
	kids() []physOp
}

// stageInfo is what EXPLAIN prints of an operator or a fused pipeline
// stage.
type stageInfo interface {
	// label is the operator name with its chosen physical algorithm,
	// e.g. "Select[csstree]".
	label() string
	// detail describes the operator's arguments and estimates.
	detail() string
	// predicted is this operator's own cost-model prediction (zero for
	// operators the model does not cover).
	predicted() costmodel.Breakdown
}

// ---------------------------------------------------------------------
// Scan.

type scanOp struct {
	t *dsm.Table
}

func (o *scanOp) exec(ctx *execCtx) (*fragment, error) {
	if ctx.prof != nil {
		ctx.prof.current().InRows = int64(o.t.N) // a scan binds, it does not move bytes
	}
	return &fragment{binds: []binding{{table: o.t}}}, nil
}

func (o *scanOp) label() string                  { return "Scan" }
func (o *scanOp) detail() string                 { return fmt.Sprintf("%s (%d rows)", o.t.Schema.Name, o.t.N) }
func (o *scanOp) kids() []physOp                 { return nil }
func (o *scanOp) predicted() costmodel.Breakdown { return costmodel.Breakdown{} }

// ---------------------------------------------------------------------
// CSS-tree access path (§3.2, [Ron98]): the trees behind a pipeline's
// Select[csstree] base stage.

func clampI32(v int64) int32 {
	if v < -1<<31 {
		return -1 << 31
	}
	if v > 1<<31-1 {
		return 1<<31 - 1
	}
	return int32(v)
}

// cssIndexes is a column's cached CSS-trees, living on the column
// itself (immutable; freed with the table). The native tree is shared
// by all uninstrumented runs. The instrumented slot holds the tree of
// the most recent sim only — a tree's simulated addresses belong to
// the sim that allocated them, and a single slot keeps harnesses that
// churn through fresh sims from pinning every dead simulator. The
// first instrumented use per sim charges the build to that sim (the
// index-creation cost); later runs on the same sim probe the amortized
// index, which is what the planner's cssSelectAccess describes.
type cssIndexes struct {
	mu      sync.Mutex
	native  *sel.CSSTree
	sim     *memsim.Sim
	simTree *sel.CSSTree
}

// cssTreeFor returns the CSS-tree over a column for the given sim.
func cssTreeFor(sim *memsim.Sim, c *dsm.Column) (*sel.CSSTree, error) {
	v, err := c.IndexCache(func() (any, error) { return &cssIndexes{}, nil })
	if err != nil {
		return nil, err
	}
	ix, ok := v.(*cssIndexes)
	if !ok {
		return nil, fmt.Errorf("engine: column %q has a foreign cached index %T", c.Def.Name, v)
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if sim == nil && ix.native != nil {
		return ix.native, nil
	}
	if sim != nil && ix.sim == sim {
		return ix.simTree, nil
	}
	vals, err := columnI32(c)
	if err != nil {
		return nil, err
	}
	t := sel.BuildCSSTree(sim, sel.NewColumn(vals))
	if sim == nil {
		ix.native = t
	} else {
		ix.sim, ix.simTree = sim, t
	}
	return t, nil
}

// columnI32 copies an integer column into the int32 domain the sel
// package indexes.
func columnI32(c *dsm.Column) ([]int32, error) {
	n := c.Vec.Len()
	out := make([]int32, n)
	switch v := c.Vec.(type) {
	case *bat.I8Vec:
		for i, x := range v.V {
			out[i] = int32(x)
		}
	case *bat.I16Vec:
		for i, x := range v.V {
			out[i] = int32(x)
		}
	case *bat.I32Vec:
		copy(out, v.V)
	default:
		return nil, fmt.Errorf("engine: column type %v not int32-indexable", c.Vec.Type())
	}
	return out, nil
}

// ---------------------------------------------------------------------
// Join.

type joinOp struct {
	left, right         physOp
	leftIdx, rightIdx   int // binding index owning the join column
	leftCol, rightCol   *dsm.Column
	leftName, rightName string
	plan                core.Plan
	card                int // planned cardinality (max of the estimates)
	par                 int // planned native degree of parallelism
	cost                costmodel.Breakdown
}

func (o *joinOp) exec(ctx *execCtx) (*fragment, error) {
	lf, err := ctx.exec(o.left)
	if err != nil {
		return nil, err
	}
	rf, err := ctx.exec(o.right)
	if err != nil {
		return nil, err
	}
	// Three phases, each profiled with its rows and its share of the
	// operator's traffic: the key BATs, the join index, the remapped OID
	// lists.
	var ph *OpStats
	if ctx.prof != nil {
		ph = ctx.prof.beginPhase("join[materialize]", o.leftName+", "+o.rightName)
	}
	l, err := materializeJoinColumn(ctx, lf.binds[o.leftIdx], o.leftCol, o.leftName)
	if err != nil {
		return nil, err
	}
	r, err := materializeJoinColumn(ctx, rf.binds[o.rightIdx], o.rightCol, o.rightName)
	if err != nil {
		return nil, err
	}
	in := int64(l.Len() + r.Len())
	if ph != nil {
		ph.InRows = in
		ctx.prof.endPhase(ph, in, in*8, in*8)
		ph = ctx.prof.beginPhase(fmt.Sprintf("join[%s]", o.plan), fmt.Sprintf("%d ⋈ %d pairs", l.Len(), r.Len()))
	}
	idx, err := core.ExecuteOpts(ctx.sim, l, r, o.plan, nil, ctx.opt)
	if err != nil {
		return nil, err
	}
	matches := int64(idx.Len())
	if ph != nil {
		ph.InRows = in
		ctx.prof.endPhase(ph, matches, 0, matches*8)
		ph = ctx.prof.beginPhase("join[remap]", fmt.Sprintf("%d bindings", len(lf.binds)+len(rf.binds)))
	}
	out := &fragment{binds: make([]binding, 0, len(lf.binds)+len(rf.binds))}
	for _, b := range lf.binds {
		nb, err := remapBinding(ctx, b, idx, true)
		if err != nil {
			return nil, err
		}
		out.binds = append(out.binds, nb)
	}
	for _, b := range rf.binds {
		nb, err := remapBinding(ctx, b, idx, false)
		if err != nil {
			return nil, err
		}
		out.binds = append(out.binds, nb)
	}
	if ph != nil {
		ph.InRows = matches
		ctx.prof.endPhase(ph, matches, 0, matches*4*int64(len(out.binds)))
	}
	return out, nil
}

func (o *joinOp) label() string { return fmt.Sprintf("Join[%s]", o.plan) }
func (o *joinOp) detail() string {
	return fmt.Sprintf("%s = %s  card~%d  par=%d", o.leftName, o.rightName, o.card, o.par)
}
func (o *joinOp) kids() []physOp                 { return []physOp{o.left, o.right} }
func (o *joinOp) predicted() costmodel.Breakdown { return o.cost }

// materializeJoinColumn builds the [row, value] BAT feeding the join
// kernels (gatherPairs) from an int/date column.
func materializeJoinColumn(ctx *execCtx, b binding, c *dsm.Column, name string) (*bat.Pairs, error) {
	switch c.Def.Type {
	case dsm.LInt, dsm.LDate:
	default:
		return nil, fmt.Errorf("engine: join column %s is %v, want int/date", name, c.Def.Type)
	}
	if c.Enc != nil {
		return nil, fmt.Errorf("engine: join column %s is dictionary-encoded", name)
	}
	return gatherPairs(ctx, b, c, name)
}

// remapBinding routes a pre-join binding through the join index: the
// index heads (left) or tails (right) are row indices into the old
// intermediate. Native runs remap morsel-parallel (each morsel writes
// its own output range).
func remapBinding(ctx *execCtx, b binding, idx *core.JoinIndex, left bool) (binding, error) {
	oids := make([]bat.Oid, idx.Len())
	err := ctx.forMorselsErr(idx.Len(), func(_, lo, hi int) error {
		for i := lo; i < hi; i++ {
			bun := idx.BUNs[i]
			row := int(bun.Tail)
			if left {
				row = int(bun.Head)
			}
			if row < 0 || row >= b.rows() {
				return fmt.Errorf("engine: join row %d outside intermediate", row)
			}
			oids[i] = b.rowOid(row)
		}
		return nil
	})
	if err != nil {
		return binding{}, err
	}
	return binding{table: b.table, oids: oids}, nil
}

// ---------------------------------------------------------------------
// GroupAggregate.

// aggStrategy is the grouping algorithm a GroupAggregate runs: §3.2's
// hash grouping, or the §4-style radix-partitioned grouping once the
// group table outgrows the caches.
type aggStrategy uint8

const (
	aggHash aggStrategy = iota
	aggRadix
)

func (s aggStrategy) String() string {
	if s == aggRadix {
		return "radix"
	}
	return "hash"
}

// groupAggOp is a pipeline's GroupAggregate sink; both strategies
// aggregate inside the pipeline. Hash grouping folds every vector into
// its worker's agg.Table and leaves one partial per morsel, which the
// pipeline merges. Radix grouping appends the vector's (key, value)
// pairs to the morsel's run and clusters the run at morsel end; at run
// end each partition folds its per-morsel runs through agg.Table (see
// foldRuns). Either way the pipeline then calls build.
type groupAggOp struct {
	bindIdx   int
	keyCol    *dsm.Column
	keyName   string
	measure   Expr        // bound: ColExprs rewritten to operand indices
	measStr   string      // display form
	temps     int         // evalVec temporaries the measure needs
	operands  []opCol     // gathered operand columns, in bind order
	strat     aggStrategy // chosen grouping algorithm
	radixBits int         // radix partitioning bits (strat == aggRadix)
	radixPass int         // cluster passes (strat == aggRadix)
	savedMS   float64     // predicted ms saved vs hash grouping (radix)
	estGroups float64
	par       int // planned native degree of parallelism
	cost      costmodel.Breakdown
}

// opCol is one gathered numeric operand of the measure expression.
type opCol struct {
	bindIdx int
	col     *dsm.Column
	name    string
}

// tableGroups sizes a worker's hash table for a run over n source
// rows: the planner's group estimate, never more than a morsel's rows.
func (o *groupAggOp) tableGroups(n int) int {
	g := int(math.Ceil(o.estGroups))
	return max(1, min(g, core.MorselRows, n))
}

// build turns grouped rows into the result relation: one row per
// group in ascending key order, the key decoded when it is a
// dictionary code. res is query-owned (Compact, Merge and foldRuns
// allocate it fresh), so the key order is produced in place by
// res.SortByKey's LSD radix passes, inside a result[order] phase.
func (o *groupAggOp) build(ctx *execCtx, res *agg.GroupResult) *fragment {
	var ph *OpStats
	if ctx.prof != nil {
		ph = ctx.prof.beginPhase("result[order]", "")
	}
	passes := res.SortByKey()
	g := res.Groups()
	if ph != nil {
		ph.Detail = fmt.Sprintf("radix sort %d groups, %d passes", g, passes)
		ph.InRows = int64(g)
		d := orderAccess(float64(g), passes, 0, ctx.model) // the digit bits move no bytes
		read, written := bytesOf(d[:]...)
		ctx.prof.endPhase(ph, int64(g), read, written)
	}
	keyRC := RelCol{Name: o.keyName}
	if o.keyCol.Enc != nil {
		keyRC.Kind = KString
		keyRC.Strs = make([]string, g)
		for i := 0; i < g; i++ {
			keyRC.Strs[i] = o.keyCol.Enc.Decode(res.Key[i])
		}
	} else {
		keyRC.Kind = KInt
		keyRC.Ints = res.Key
	}
	rel := &Rel{N: g, Cols: []RelCol{
		keyRC,
		{Name: "count", Kind: KInt, Ints: res.Count},
		{Name: "sum", Kind: KFloat, Floats: res.Sum},
		{Name: "min", Kind: KFloat, Floats: res.Min},
		{Name: "max", Kind: KFloat, Floats: res.Max},
	}}
	return &fragment{rel: rel}
}

// feedAccess is the AggFeed stage's description for n tuples, less its
// operands' gathers (a gatherAccess into 8-byte temporaries each).
func (o *groupAggOp) feedAccess(n float64, model *costmodel.Model) [2]access {
	if o.strat == aggRadix {
		return [2]access{radixFeedAccess(n, o.radixBits, o.radixPass)[0]}
	}
	return hashFeedAccess(n, o.estGroups, model)
}

func (o *groupAggOp) label() string {
	if o.strat == aggRadix {
		return fmt.Sprintf("GroupAggregate[radix bits=%d]", o.radixBits)
	}
	return fmt.Sprintf("GroupAggregate[%s]", o.strat)
}

func (o *groupAggOp) detail() string {
	d := fmt.Sprintf("key=%s measure=%s  groups~%.0f  par=%d", o.keyName, o.measStr, o.estGroups, o.par)
	if o.strat == aggRadix {
		d += fmt.Sprintf("  passes=%d  saves~%.1f ms vs hash", o.radixPass, o.savedMS)
	}
	return d
}
func (o *groupAggOp) predicted() costmodel.Breakdown { return o.cost }

// ---------------------------------------------------------------------
// Project: materialize named columns. Over bindings it is a pipeline's
// Project sink (the final tuple reconstruction — positional void
// joins, §3.1); over a materialized result it selects columns in
// place.

type projectOp struct {
	in   physOp
	cols []projCol
	par  int // planned native degree of parallelism
	cost costmodel.Breakdown
}

// projCol is one output column: either a table-backed gather or a
// pass-through of a materialized column.
type projCol struct {
	name    string
	bindIdx int
	col     *dsm.Column // table-backed form
	relIdx  int         // materialized form (col == nil)
}

func (o *projectOp) exec(ctx *execCtx) (*fragment, error) {
	in, err := ctx.exec(o.in)
	if err != nil {
		return nil, err
	}
	out := &Rel{N: in.rel.N, Cols: make([]RelCol, len(o.cols))}
	for i, pc := range o.cols {
		out.Cols[i] = in.rel.Cols[pc.relIdx]
	}
	return &fragment{rel: out}, nil
}

func (o *projectOp) label() string { return "Project" }
func (o *projectOp) detail() string {
	names := make([]string, len(o.cols))
	for i, c := range o.cols {
		names[i] = c.name
	}
	return fmt.Sprintf("%s  par=%d", describeCols(names), o.par)
}
func (o *projectOp) kids() []physOp                 { return []physOp{o.in} }
func (o *projectOp) predicted() costmodel.Breakdown { return o.cost }

// ---------------------------------------------------------------------
// OrderBy.

type orderByOp struct {
	in      physOp
	colName string
	desc    bool
	// table-backed form:
	bindIdx int
	col     *dsm.Column
	// materialized form (col == nil):
	relIdx int
	width  int // key width orderByAccess charges
	cost   costmodel.Breakdown
}

func (o *orderByOp) exec(ctx *execCtx) (*fragment, error) {
	in, err := ctx.exec(o.in)
	if err != nil {
		return nil, err
	}
	n := in.rows()
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	var less func(a, b int) bool
	if in.rel != nil {
		rc := &in.rel.Cols[o.relIdx]
		switch rc.Kind {
		case KInt:
			less = func(a, b int) bool { return rc.Ints[a] < rc.Ints[b] }
		case KFloat:
			less = func(a, b int) bool { return rc.Floats[a] < rc.Floats[b] }
		default:
			less = func(a, b int) bool { return rc.Strs[a] < rc.Strs[b] }
		}
	} else {
		b := in.binds[o.bindIdx]
		keys, err := gatherSortKeys(ctx, b, o.col, o.colName, n)
		if err != nil {
			return nil, err
		}
		less = keys.less
	}
	if o.desc {
		inner := less
		less = func(a, b int) bool { return inner(b, a) }
	}
	// Stable comparison sort without sort.SliceStable's reflection
	// overhead; same comparator, same stability, so the permutation —
	// ties included — is identical to the previous implementation.
	slices.SortStableFunc(idx, func(a, b int) int {
		switch {
		case less(a, b):
			return -1
		case less(b, a):
			return 1
		}
		return 0
	})
	if ctx.sim != nil {
		// Charge the comparison sort: n·log2(n) key comparisons.
		lg := 0
		for v := n; v > 1; v >>= 1 {
			lg++
		}
		ctx.sim.AddCPU(n*lg, ctx.machine.Cost.WScanBUN/4)
	}
	if ctx.prof != nil {
		d := orderByAccess(float64(n), o.width, ctx.model)
		node := ctx.prof.current()
		node.BytesRead, node.BytesWritten = bytesOf(d[:]...)
	}
	return permute(in, idx), nil
}

// sortKeys holds one gathered sort-key column.
type sortKeys struct {
	ints []int64
	flts []float64
	strs []string
}

func (k *sortKeys) less(a, b int) bool {
	switch {
	case k.ints != nil:
		return k.ints[a] < k.ints[b]
	case k.flts != nil:
		return k.flts[a] < k.flts[b]
	default:
		return k.strs[a] < k.strs[b]
	}
}

func gatherSortKeys(ctx *execCtx, b binding, c *dsm.Column, name string, n int) (*sortKeys, error) {
	c.Vec.Bind(ctx.sim)
	out := &sortKeys{}
	switch {
	case c.Enc != nil:
		out.strs = make([]string, n)
	case c.Def.Type == dsm.LString:
		out.strs = make([]string, n)
	case c.Def.Type == dsm.LFloat:
		out.flts = make([]float64, n)
	default:
		out.ints = make([]int64, n)
	}
	for i := 0; i < n; i++ {
		pos, err := b.pos(i)
		if err != nil {
			return nil, err
		}
		c.Vec.Touch(ctx.sim, pos)
		switch {
		case c.Enc != nil:
			out.strs[i] = c.Enc.Decode(c.Vec.Int(pos))
		case out.strs != nil:
			sv, ok := c.Vec.(*bat.StrVec)
			if !ok {
				return nil, fmt.Errorf("engine: column %q is not a string column", name)
			}
			out.strs[i] = sv.Str(pos)
		case out.flts != nil:
			out.flts[i] = c.Vec.(*bat.F64Vec).Float(pos)
		default:
			out.ints[i] = c.Vec.Int(pos)
		}
	}
	return out, nil
}

// permute reorders a fragment by row indices (also used by Limit with
// a prefix).
func permute(in *fragment, idx []int) *fragment {
	if in.rel != nil {
		out := &Rel{N: len(idx), Cols: make([]RelCol, len(in.rel.Cols))}
		for ci := range in.rel.Cols {
			src := &in.rel.Cols[ci]
			dst := RelCol{Name: src.Name, Kind: src.Kind}
			switch src.Kind {
			case KInt:
				dst.Ints = make([]int64, len(idx))
				for i, j := range idx {
					dst.Ints[i] = src.Ints[j]
				}
			case KFloat:
				dst.Floats = make([]float64, len(idx))
				for i, j := range idx {
					dst.Floats[i] = src.Floats[j]
				}
			default:
				dst.Strs = make([]string, len(idx))
				for i, j := range idx {
					dst.Strs[i] = src.Strs[j]
				}
			}
			out.Cols[ci] = dst
		}
		return &fragment{rel: out}
	}
	out := &fragment{binds: make([]binding, len(in.binds))}
	for bi, b := range in.binds {
		oids := make([]bat.Oid, len(idx))
		for i, j := range idx {
			oids[i] = b.rowOid(j)
		}
		out.binds[bi] = binding{table: b.table, oids: oids}
	}
	return out
}

func (o *orderByOp) label() string { return "OrderBy" }
func (o *orderByOp) detail() string {
	dir := "asc"
	if o.desc {
		dir = "desc"
	}
	return fmt.Sprintf("%s %s", o.colName, dir)
}
func (o *orderByOp) kids() []physOp                 { return []physOp{o.in} }
func (o *orderByOp) predicted() costmodel.Breakdown { return o.cost }

// ---------------------------------------------------------------------
// Limit.

type limitOp struct {
	in physOp
	n  int
}

// exec keeps the first n rows of a materialized result by slicing it
// in place — no permutation copy. (A Limit over bindings is a
// pipeline's Limit probe instead: the pipeline stops consuming morsels
// once the prefix has produced n rows.)
func (o *limitOp) exec(ctx *execCtx) (*fragment, error) {
	in, err := ctx.exec(o.in)
	if err != nil {
		return nil, err
	}
	n := min(in.rows(), o.n)
	out := &Rel{N: n, Cols: make([]RelCol, len(in.rel.Cols))}
	for ci, c := range in.rel.Cols {
		switch c.Kind {
		case KInt:
			c.Ints = c.Ints[:n]
		case KFloat:
			c.Floats = c.Floats[:n]
		default:
			c.Strs = c.Strs[:n]
		}
		out.Cols[ci] = c
	}
	return &fragment{rel: out}, nil
}

func (o *limitOp) label() string                  { return "Limit" }
func (o *limitOp) detail() string                 { return fmt.Sprintf("%d", o.n) }
func (o *limitOp) kids() []physOp                 { return []physOp{o.in} }
func (o *limitOp) predicted() costmodel.Breakdown { return costmodel.Breakdown{} }

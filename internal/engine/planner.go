package engine

import (
	"fmt"
	"strings"

	"monetlite/internal/bat"
	"monetlite/internal/core"
	"monetlite/internal/costmodel"
	"monetlite/internal/dsm"
	"monetlite/internal/memsim"
)

// Config configures planning and execution.
type Config struct {
	// Machine is the profile whose cost models drive physical choices
	// (and whose simulator instruments Run, when given one). The zero
	// value means the Origin2000, the paper's experimental platform.
	// Ignored when Model is set — the model's machine wins.
	Machine memsim.Machine
	// Model prices every cost-model consultation: the machine profile
	// plus any per-operator-kind corrections learned from profiling
	// feeds (costmodel.Model.WithResiduals). Nil means an uncorrected
	// model over Machine. When set, its embedded machine overrides
	// Machine, so a calibrated + learned model changes both the
	// formulas' inputs and how their outputs are weighed.
	Model *costmodel.Model
	// Opt tunes the native parallel execution engine for the whole
	// operator tree: pipelines, joins and group-aggregates all split
	// their inputs into morsels and fan them out over one pool of
	// Opt.Parallelism workers, producing output byte-identical to
	// serial execution. Instrumented runs are always serial
	// (single-CPU sim).
	Opt core.Options
	// ForceGroup overrides the cost-based grouping choice: "hash" or
	// "radix" forces that algorithm for every GroupAggregate in the
	// plan (the A/B lever behind mlquery's -agg flag and the strategy
	// cross-check tests); "" keeps the cost-model decision. Keys,
	// counts, min and max agree bitwise whichever strategy runs; float
	// sums agree bitwise on one morsel and only to rounding across
	// morsels, where hash merges per-morsel partial sums and radix
	// accumulates each group in global input order. Each strategy
	// alone is byte-identical at every worker count.
	ForceGroup string
}

func (c Config) machine() memsim.Machine {
	if c.Machine.Name == "" {
		return memsim.Origin2000()
	}
	return c.Machine
}

// PhysicalPlan is a lowered, executable plan.
type PhysicalPlan struct {
	root physOp
	cfg  Config
}

// Plan lowers a logical DAG into a physical operator tree, consulting
// the cost models for every physical choice (see package doc). Every
// selection above a breaker, projection and aggregation lowers
// into a stage of the cache-resident pipeline over that breaker; a
// plan left table-backed gets a Project sink reconstructing every
// bound column.
func Plan(root Node, cfg Config) (*PhysicalPlan, error) {
	if cfg.Model != nil {
		cfg.Machine = cfg.Model.M
	} else {
		cfg.Machine = cfg.machine()
		m := costmodel.New(cfg.Machine)
		cfg.Model = &m
	}
	switch cfg.ForceGroup {
	case "", "hash", "radix":
	default:
		return nil, fmt.Errorf("engine: unknown grouping strategy %q (want hash or radix)", cfg.ForceGroup)
	}
	op, s, err := lower(root, cfg)
	if err != nil {
		return nil, err
	}
	if !s.materialized() {
		op = project(op, s, defaultProjection(s.tables), cfg)
	}
	return &PhysicalPlan{root: op, cfg: cfg}, nil
}

// Predicted sums the cost-model predictions of every operator.
func (p *PhysicalPlan) Predicted() costmodel.Breakdown {
	var sum costmodel.Breakdown
	var walk func(op physOp)
	walk = func(op physOp) {
		sum = sum.Add(op.predicted())
		for _, k := range op.kids() {
			walk(k)
		}
	}
	walk(p.root)
	return sum
}

// PredictedMillis prices the whole plan through the model: each
// operator's breakdown is charged at its kind's learned correction and
// the corrected milliseconds summed. This — not Predicted().Millis —
// is the number a self-tuned model reports (and what mlquery compares
// against wall-clock time).
func (p *PhysicalPlan) PredictedMillis() float64 {
	var sum float64
	var walk func(op physOp)
	walk = func(op physOp) {
		if c := op.predicted(); c != (emptyBreakdown) {
			sum += p.cfg.Model.Millis(costmodel.KindOf(op.label()), c)
		}
		for _, k := range op.kids() {
			walk(k)
		}
	}
	walk(p.root)
	return sum
}

// Machine returns the machine profile the plan was costed for.
func (p *PhysicalPlan) Machine() memsim.Machine { return p.cfg.Machine }

// Model returns the cost model (machine + learned corrections) the
// plan was costed with.
func (p *PhysicalPlan) Model() *costmodel.Model { return p.cfg.Model }

// Run executes the plan. Natively (nil sim), pipelines execute
// vector-at-a-time through per-worker buffers and breakers
// morsel-parallel, per Config.Opt. Pass a simulator of the plan's
// machine to obtain exact L1/L2/TLB miss counts: the same operators
// and pipeline stages run strictly serially, mirroring every column
// read into the simulator — predicted vs simulated cost, side by
// side.
func (p *PhysicalPlan) Run(sim *memsim.Sim) (*Result, error) {
	return p.run(sim, false)
}

// RunProfiled executes the plan exactly like Run — same operators, same
// morsel decomposition, byte-identical result — while collecting a
// per-operator execution profile (EXPLAIN ANALYZE). Profiling is
// observation-only: it reads clocks and counters around operator
// boundaries and never influences scheduling or merge order.
func (p *PhysicalPlan) RunProfiled(sim *memsim.Sim) (*Result, error) {
	return p.run(sim, true)
}

func (p *PhysicalPlan) run(sim *memsim.Sim, profile bool) (*Result, error) {
	ctx := &execCtx{sim: sim, machine: p.cfg.Machine, model: p.cfg.Model, opt: p.cfg.Opt}
	if sim != nil {
		ctx.opt = core.Serial()
	}
	ctx.arenas = make([]*pipeArena, ctx.opt.Workers())
	var prof *Profile
	if profile {
		workers := 1
		if sim == nil {
			workers = ctx.opt.Workers()
		}
		prof = newProfile(p.cfg.Model, workers)
		ctx.prof, ctx.spans = prof, prof.rec
	}
	frag, err := ctx.exec(p.root)
	if err != nil {
		return nil, err
	}
	res := &Result{Rel: frag.rel}
	if prof != nil {
		prof.finish()
		res.Profile = prof
	}
	return res, nil
}

// defaultProjection lists every column of every bound table,
// qualifying names that appear in more than one table.
func defaultProjection(tables []*dsm.Table) []projCol {
	count := map[string]int{}
	for _, t := range tables {
		for _, cd := range t.Schema.Cols {
			count[cd.Name]++
		}
	}
	var out []projCol
	for bi, t := range tables {
		for ci, cd := range t.Schema.Cols {
			name := cd.Name
			if count[cd.Name] > 1 {
				name = t.Schema.Name + "." + cd.Name
			}
			out = append(out, projCol{name: name, bindIdx: bi, col: t.Columns()[ci]})
		}
	}
	return out
}

// ---------------------------------------------------------------------
// Plan-time shapes.

// shape is the planner's knowledge of an operator's output: either a
// set of bound tables (table-backed) or materialized columns, plus the
// estimated cardinality.
type shape struct {
	tables []*dsm.Table
	mat    []matCol
	rows   float64
}

type matCol struct {
	name string
	kind Kind
}

func (s *shape) materialized() bool { return s.tables == nil }

// resolve finds a named column among the bound tables. Qualified
// "table.col" names disambiguate; unqualified names must be unique.
func (s *shape) resolve(name string) (int, *dsm.Column, error) {
	if tbl, col, ok := strings.Cut(name, "."); ok {
		for i, t := range s.tables {
			if t.Schema.Name == tbl {
				c, err := t.Column(col)
				if err != nil {
					return 0, nil, err
				}
				return i, c, nil
			}
		}
		return 0, nil, fmt.Errorf("engine: no table %q in scope", tbl)
	}
	found := -1
	var fc *dsm.Column
	for i, t := range s.tables {
		if c, err := t.Column(name); err == nil {
			if found >= 0 {
				return 0, nil, fmt.Errorf("engine: column %q is ambiguous; qualify as table.%s", name, name)
			}
			found, fc = i, c
		}
	}
	if found < 0 {
		return 0, nil, fmt.Errorf("engine: no column %q in scope", name)
	}
	return found, fc, nil
}

// resolveMat finds a named materialized column.
func (s *shape) resolveMat(name string) (int, error) {
	for i, c := range s.mat {
		if c.name == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("engine: no column %q in materialized result", name)
}

// ---------------------------------------------------------------------
// Lowering.

func lower(n Node, cfg Config) (physOp, *shape, error) {
	model := cfg.Model
	switch x := n.(type) {
	case *ScanNode:
		if x.Table == nil {
			return nil, nil, fmt.Errorf("engine: Scan of nil table")
		}
		return &scanOp{t: x.Table},
			&shape{tables: []*dsm.Table{x.Table}, rows: float64(x.Table.N)}, nil

	case *SelectNode:
		return lowerSelect(x, cfg)

	case *JoinNode:
		return lowerJoin(x, cfg)

	case *GroupAggNode:
		return lowerGroupAgg(x, cfg)

	case *ProjectNode:
		in, s, err := lower(x.Input, cfg)
		if err != nil {
			return nil, nil, err
		}
		var cols []projCol
		out := &shape{rows: s.rows}
		for _, name := range x.Cols {
			if s.materialized() {
				i, err := s.resolveMat(name)
				if err != nil {
					return nil, nil, err
				}
				cols = append(cols, projCol{name: name, relIdx: i})
				out.mat = append(out.mat, s.mat[i])
			} else {
				bi, c, err := s.resolve(name)
				if err != nil {
					return nil, nil, err
				}
				cols = append(cols, projCol{name: name, bindIdx: bi, col: c})
				out.mat = append(out.mat, matCol{name: name, kind: colKind(c)})
			}
		}
		return project(in, s, cols, cfg), out, nil

	case *OrderByNode:
		in, s, err := lower(x.Input, cfg)
		if err != nil {
			return nil, nil, err
		}
		op := &orderByOp{in: in, colName: x.Col, desc: x.Desc, width: 8}
		if s.materialized() {
			i, err := s.resolveMat(x.Col)
			if err != nil {
				return nil, nil, err
			}
			op.relIdx = i
		} else {
			bi, c, err := s.resolve(x.Col)
			if err != nil {
				return nil, nil, err
			}
			op.bindIdx, op.col, op.width = bi, c, c.Width()
		}
		d := orderByAccess(float64(int(s.rows)), op.width, model)
		op.cost = model.Price(d[:]...)
		return op, s, nil

	case *LimitNode:
		in, s, err := lower(x.Input, cfg)
		if err != nil {
			return nil, nil, err
		}
		if x.N < 0 {
			return nil, nil, fmt.Errorf("engine: negative limit %d", x.N)
		}
		out := *s
		out.rows = min(out.rows, float64(x.N))
		if p, ok := in.(*pipelineOp); (ok && p.limitable()) || !s.materialized() {
			p := pipelineOver(in, s, cfg, (*pipelineOp).limitable)
			p.limitN = x.N
			return p, &out, nil
		}
		return &limitOp{in: in, n: x.N}, &out, nil
	}
	return nil, nil, fmt.Errorf("engine: unknown logical node %T", n)
}

// project lowers a projection: over bindings, the Project sink of the
// pipeline over in; over a materialized result, a column pass-through.
func project(in physOp, s *shape, cols []projCol, cfg Config) physOp {
	op := &projectOp{cols: cols, par: planPar(cfg, s.rows)}
	if s.materialized() {
		op.in = in
		return op
	}
	for _, pc := range cols {
		d := gatherAccess(s.rows, pc.col, pc.col.Width(), cfg.Model)
		op.cost = op.cost.Add(cfg.Model.Price(d[:]...))
	}
	p := pipelineOver(in, s, cfg, (*pipelineOp).open)
	p.proj = op
	return p
}

// lowerSelect picks the selection access path (§3.2): directly above a
// Scan the predicate becomes the pipeline's base select, and the
// planner compares the cost models of a full-column scan-select and a
// CSS-tree range select; above anything else it becomes a positional
// refilter stage.
func lowerSelect(x *SelectNode, cfg Config) (physOp, *shape, error) {
	model := cfg.Model
	in, s, err := lower(x.Input, cfg)
	if err != nil {
		return nil, nil, err
	}
	if s.materialized() {
		return nil, nil, fmt.Errorf("engine: Select above a materialized result is not supported")
	}
	col, err := predColumn(s, x.Pred)
	if err != nil {
		return nil, nil, err
	}
	c := col.col
	frac := estimateFraction(c, x.Pred)
	out := &shape{tables: s.tables, rows: s.rows * frac}
	f := pipeFilter{bindIdx: col.bindIdx, col: c, pred: x.Pred, est: frac, par: planPar(cfg, s.rows)}
	f.cost = f.price(s.rows, model)
	if _, isScan := in.(*scanOp); isScan {
		n := float64(c.Vec.Len())
		f.base, f.par = true, planPar(cfg, n)
		f.cost = f.price(n, model)
		rp, isRange := x.Pred.(RangePred)
		if isRange && indexableI32(c) && rangeInI32(rp) {
			scan := f.cost
			f.css = true
			if f.cost = f.price(n, model); model.Nanos("Select[csstree]", f.cost) >= model.Nanos("Select[scan]", scan) {
				f.css, f.cost = false, scan
			}
		}
	}
	p := pipelineOver(in, s, cfg, (*pipelineOp).open)
	p.filters = append(p.filters, f)
	return p, out, nil
}

// predColumn resolves and type-checks the predicate's column.
type resolvedCol struct {
	bindIdx int
	col     *dsm.Column
}

func predColumn(s *shape, pred Predicate) (resolvedCol, error) {
	switch p := pred.(type) {
	case RangePred:
		bi, c, err := s.resolve(p.Col)
		if err != nil {
			return resolvedCol{}, err
		}
		switch c.Def.Type {
		case dsm.LInt, dsm.LDate:
		default:
			return resolvedCol{}, fmt.Errorf("engine: range predicate on %v column %q", c.Def.Type, p.Col)
		}
		return resolvedCol{bi, c}, nil
	case EqStringPred:
		bi, c, err := s.resolve(p.Col)
		if err != nil {
			return resolvedCol{}, err
		}
		if c.Def.Type != dsm.LString {
			return resolvedCol{}, fmt.Errorf("engine: string predicate on %v column %q", c.Def.Type, p.Col)
		}
		return resolvedCol{bi, c}, nil
	}
	return resolvedCol{}, fmt.Errorf("engine: unknown predicate %T", pred)
}

// rangeInI32 reports whether both range bounds lie in the int32 domain
// the CSS-tree indexes. Constants outside it are routed to scan-select
// — which compares at full int64 width — rather than clamped onto real
// MinInt32/MaxInt32 key values, which would silently change the
// predicate (e.g. v > 2^31 must match nothing, not the MaxInt32 rows).
// The CSS-tree stage keeps a defensive guard (resolvedFilter.markCSS)
// for plans built without this check.
func rangeInI32(p RangePred) bool {
	const loMin, hiMax = -1 << 31, 1<<31 - 1
	return p.Lo >= loMin && p.Lo <= hiMax && p.Hi >= loMin && p.Hi <= hiMax
}

// indexableI32 reports whether a column can back a CSS-tree (a stored
// integer column within the int32 domain).
func indexableI32(c *dsm.Column) bool {
	if c.Enc != nil {
		return false
	}
	switch c.Vec.(type) {
	case *bat.I8Vec, *bat.I16Vec, *bat.I32Vec:
		return true
	}
	return false
}

// columnBytes is a column's stored footprint.
func columnBytes(c *dsm.Column) float64 {
	return float64(c.Vec.Len()) * float64(c.Width())
}

func colKind(c *dsm.Column) Kind {
	switch {
	case c.Def.Type == dsm.LString:
		return KString
	case c.Def.Type == dsm.LFloat:
		return KFloat
	default:
		return KInt
	}
}

// lowerJoin lowers a join by §3.4.4's rule. While the inner (right)
// input and its hash table fit L2 (probeFootprint), B = 0 wins and the
// join is a HashProbe stage in the outer input's pipeline. Beyond
// that, a Join breaker takes the strategy, radix bits and passes
// core.PlanAuto picks over the paper's cost models at the estimated
// operand cardinality.
func lowerJoin(x *JoinNode, cfg Config) (physOp, *shape, error) {
	model := cfg.Model
	l, ls, err := lower(x.Left, cfg)
	if err != nil {
		return nil, nil, err
	}
	r, rs, err := lower(x.Right, cfg)
	if err != nil {
		return nil, nil, err
	}
	if ls.materialized() || rs.materialized() {
		return nil, nil, fmt.Errorf("engine: Join above a materialized result is not supported")
	}
	li, lc, err := ls.resolve(x.LeftCol)
	if err != nil {
		return nil, nil, err
	}
	ri, rc, err := rs.resolve(x.RightCol)
	if err != nil {
		return nil, nil, err
	}
	for _, c := range []struct {
		col  *dsm.Column
		name string
	}{{lc, x.LeftCol}, {rc, x.RightCol}} {
		switch c.col.Def.Type {
		case dsm.LInt, dsm.LDate:
		default:
			return nil, nil, fmt.Errorf("engine: join column %q is %v, want int/date", c.name, c.col.Def.Type)
		}
	}
	card := int(ls.rows)
	if int(rs.rows) > card {
		card = int(rs.rows)
	}
	if card < 1 {
		card = 1
	}
	out := &shape{
		tables: append(append([]*dsm.Table{}, ls.tables...), rs.tables...),
		rows:   float64(card), // hit-rate-one heuristic (§3.4.1 workloads)
	}
	if probeFootprint(rs.rows) <= float64(model.M.L2.Size) {
		p := pipelineOver(l, ls, cfg, func(p *pipelineOp) bool { return p.open() && p.probe == nil })
		st := &probeStage{build: r, buildRows: rs.rows, probeIdx: li, buildIdx: ri,
			probeCol: lc, buildCol: rc,
			probeName: qualify(ls, li, x.LeftCol), buildName: qualify(rs, ri, x.RightCol),
			at: len(p.filters)}
		build, probe := st.buildAccess(rs.rows, model), st.probeAccess(ls.rows, rs.rows, model)
		st.cost = priceAll(model, build[:], probe[:])
		p.probe = st
		return p, out, nil
	}
	plan := core.PlanAutoModel(card, model)
	lg, rg := gatherAccess(ls.rows, lc, 8, model), gatherAccess(rs.rows, rc, 8, model)
	cost := core.PredictPlan(plan, card, model.M).Add(model.Price(lg[:]...)).Add(model.Price(rg[:]...))
	op := &joinOp{
		left: l, right: r,
		leftIdx: li, rightIdx: ri,
		leftCol: lc, rightCol: rc,
		leftName: qualify(ls, li, x.LeftCol), rightName: qualify(rs, ri, x.RightCol),
		plan: plan, card: card, par: planPar(cfg, float64(card)), cost: cost,
	}
	return op, out, nil
}

// chooseGrouping resolves the operator's grouping algorithm for n
// tuples with g estimated groups (§3.2 extended): hash while the ~48
// bytes/group table stays cache-resident, and radix-partitioned
// aggregation once the table outgrows the caches — cluster the pairs
// on radixBitsFor(g) low key bits (cost-modelled cluster passes +
// now-cache-resident probes) so each partition's table fits a quarter
// of L1. Both candidates include the same orderAccess of sorting the
// result on keyBits key bits. They are priced through the model under
// their own kinds, so a learned "GroupAggregate[radix]" correction
// reweighs the comparison. cfg.ForceGroup ("hash"/"radix") overrides
// it; a forced radix floors the bit count at 1 so the partitioning
// machinery genuinely runs. ForceGroup was already validated by Plan — the one
// validation point — so every non-forcing value means the cost-based
// choice here.
func chooseGrouping(op *groupAggOp, n int, g float64, keyBits int, cfg Config) {
	model := cfg.Model
	hash := groupCost(n, g, keyBits, model)
	op.strat, op.cost = aggHash, hash
	bits := radixBitsFor(g, model)
	if cfg.ForceGroup == "radix" {
		bits = max(bits, 1)
	}
	if cfg.ForceGroup == "hash" || bits == 0 {
		return
	}
	passes := core.OptimalPasses(bits, model.M)
	radix := radixGroupCost(n, g, keyBits, bits, passes, model)
	hashN := model.Nanos("GroupAggregate[hash]", hash)
	radixN := model.Nanos("GroupAggregate[radix]", radix)
	if cfg.ForceGroup == "radix" || radixN < hashN {
		op.strat, op.radixBits, op.radixPass, op.cost = aggRadix, bits, passes, radix
		op.savedMS = (hashN - radixN) / 1e6
	}
}

// qualify prints a column name with its table when helpful.
func qualify(s *shape, bindIdx int, name string) string {
	if strings.Contains(name, ".") {
		return name
	}
	return s.tables[bindIdx].Schema.Name + "." + name
}

// lowerGroupAgg picks the grouping algorithm (§3.2): hash while the
// per-group state fits the memory caches, radix-partitioned beyond.
func lowerGroupAgg(x *GroupAggNode, cfg Config) (physOp, *shape, error) {
	model := cfg.Model
	in, s, err := lower(x.Input, cfg)
	if err != nil {
		return nil, nil, err
	}
	if s.materialized() {
		return nil, nil, fmt.Errorf("engine: GroupAggregate above a materialized result is not supported")
	}
	ki, kc, err := s.resolve(x.Key)
	if err != nil {
		return nil, nil, err
	}
	if kc.Def.Type == dsm.LString && kc.Enc == nil {
		return nil, nil, fmt.Errorf("engine: group key %q is an unencoded string column", x.Key)
	}
	if x.Measure == nil {
		return nil, nil, fmt.Errorf("engine: GroupAggregate needs a measure expression")
	}
	if err := validateExpr(x.Measure); err != nil {
		return nil, nil, err
	}
	op := &groupAggOp{bindIdx: ki, keyCol: kc, keyName: x.Key, measStr: x.Measure.String(),
		par: planPar(cfg, s.rows)}
	order := map[string]int{}
	op.measure = bindExpr(x.Measure, order)
	op.temps = exprTemps(op.measure)
	op.operands = make([]opCol, len(order))
	var gather costmodel.Breakdown
	// Iterate in slot order (first appearance in the expression), not
	// map order: the gather-cost floats below accumulate into a sum,
	// and float addition in random map order makes EXPLAIN output flap
	// run to run. exprColumns walks the expression exactly as bindExpr
	// does, so it yields each name at its assigned operand index.
	for _, name := range exprColumns(x.Measure) {
		idx := order[name]
		bi, c, err := s.resolve(name)
		if err != nil {
			return nil, nil, err
		}
		switch c.Def.Type {
		case dsm.LInt, dsm.LFloat, dsm.LDate:
		default:
			return nil, nil, fmt.Errorf("engine: measure column %q is %v, want numeric", name, c.Def.Type)
		}
		op.operands[idx] = opCol{bindIdx: bi, col: c, name: name}
		d := gatherAccess(s.rows, c, 8, model)
		gather = gather.Add(model.Price(d[:]...))
	}
	g := estimateGroups(kc)
	op.estGroups = g
	chooseGrouping(op, int(s.rows), g, keyRangeBits(kc, g), cfg)
	op.cost = op.cost.Add(gather)
	keyKind := KInt
	if kc.Enc != nil {
		keyKind = KString
	}
	out := &shape{
		rows: g,
		mat: []matCol{
			{name: x.Key, kind: keyKind},
			{name: "count", kind: KInt},
			{name: "sum", kind: KFloat},
			{name: "min", kind: KFloat},
			{name: "max", kind: KFloat},
		},
	}
	p := pipelineOver(in, s, cfg, (*pipelineOp).open)
	p.gagg = op
	return p, out, nil
}

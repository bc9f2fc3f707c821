package engine

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"

	"monetlite/internal/agg"
	"monetlite/internal/bat"
	"monetlite/internal/core"
	"monetlite/internal/costmodel"
	"monetlite/internal/dsm"
	"monetlite/internal/memsim"
	"monetlite/internal/sel"
)

// Pipelines are the engine's one executor for selection, projection
// and aggregation. A pipeline takes a table-backed source — a Scan, a
// Join, an OrderBy or Limit over bindings, or another pipeline — and
// fuses every stage the plan puts above it:
//
//	source → Select[scan | csstree]? → Refilter* → [HashProbe → Refilter*] → {OID lists | Project | GroupAggregate} [→ Limit]
//
// It executes per morsel of the source's rows. Within a morsel it
// iterates small vectors of row indices (sized so the working set fits
// the machine's L2 cache); each stage resolves the vector's rows to
// storage positions through its own binding's OID list in per-worker
// scratch, so the intermediates an operator-at-a-time executor writes
// to RAM and reads back (OID lists, position lists, gathered operand
// temporaries) never leave the cache. Over a Scan, the base select is
// either a scan-select or a CSS-tree range select: the tree marks the
// qualifying positions in a bitmap once per run, and every worker
// drains its morsel's words, so positions come out in storage order
// with no sort. A GroupAggregate sink gathers the key codes and
// operands and evaluates the measure a vector at a time (evalVec). A
// hash sink folds the pairs into the worker's cache-resident agg.Table,
// which leaves one compact partial per morsel. A radix sink appends
// them to the morsel's run and, at morsel end, radix-clusters the run
// on the worker that produced it; at run end every partition folds its
// per-morsel runs through agg.Table (§3.2's table, kept cache-resident
// by §4's partitioning). A join whose inner input fits L2 is a
// HashProbe stage (probe.go): the vector then holds (outer row, inner
// row) pairs, and every later stage resolves each binding through the
// side it belongs to. Breakers — a Join with a larger inner, OrderBy,
// the GroupAggregate merge or partition fold — materialize their
// output once, as the next pipeline's source.
//
// Two contracts hold by construction:
//
//   - Results are byte-identical at every worker count. Outputs append
//     in (morsel, vector, row) order; a hash sink's partials each sum
//     their morsel in row order and merge in morsel order, and a radix
//     sink's stable clustering and morsel-order partition folds sum
//     every group in global input order, so even float aggregates
//     associate identically.
//   - Instrumented runs (sim != nil) execute the same stages, serially.
//     Before each native *Pos kernel call a touch pass (execCtx.mirror)
//     replays that kernel's column reads into the simulator and charges
//     its CPU; the kernels themselves mirror nothing. The aggregation
//     table mirrors each fold right after it (in agg.Table.Fold), once
//     the groups it touches exist; a radix sink mirrors its run writes
//     and clusters through core.RadixClusterKVSim, which replays every
//     pass.

// pipeFilter is one filtering stage: a predicate on one binding's
// column.
type pipeFilter struct {
	bindIdx int
	col     *dsm.Column
	pred    Predicate
	est     float64 // estimated selected fraction
	base    bool    // contiguous select directly above a Scan source
	css     bool    // base select through the column's CSS-tree (§3.2, [Ron98])
	par     int     // planned native degree of parallelism
	cost    costmodel.Breakdown
}

func (f *pipeFilter) label() string {
	switch {
	case f.css:
		return "Select[csstree]"
	case f.base:
		return "Select[scan]"
	}
	return "Select[refilter]"
}

func (f *pipeFilter) detail() string {
	return fmt.Sprintf("%s  sel~%.2f%%  par=%d", f.pred, f.est*100, f.par)
}

func (f *pipeFilter) predicted() costmodel.Breakdown { return f.cost }

// accesses is the filter's memory-access description for in rows
// entering and out leaving: a scan-select or CSS-tree base stage over
// in source rows, or a refilter of the in rows it re-tests.
func (f *pipeFilter) accesses(in, out float64, model *costmodel.Model) [6]access {
	var d [6]access
	switch {
	case f.css:
		d = cssSelectAccess(in, out, model)
	case f.base:
		s := scanSelectAccess(in, out, f.col.Width(), model)
		copy(d[:], s[:])
	default:
		r := refilterAccess(in, f.col, model)
		copy(d[:], r[:])
	}
	return d
}

// price is the filter's cost over in rows at its estimated selectivity.
func (f *pipeFilter) price(in float64, model *costmodel.Model) costmodel.Breakdown {
	d := f.accesses(in, in*f.est, model)
	return model.Price(d[:]...)
}

// pipelineOp is the fused physical operator.
type pipelineOp struct {
	src     physOp  // table-backed source
	srcRows float64 // planner's estimate of the source's rows
	tables  string  // the source's bound tables, for EXPLAIN
	filters []pipeFilter
	probe   *probeStage // HashProbe stage after filters[:probe.at] (nil otherwise)
	proj    *projectOp  // Project sink (nil otherwise)
	gagg    *groupAggOp // GroupAggregate sink (nil otherwise)
	limitN  int         // Limit probe; -1 = none
	par     int         // planned native degree of parallelism
	model   *costmodel.Model
}

// pipelineOver returns the pipeline a new stage attaches to: in itself
// while it is a pipeline that can still take the stage (per open),
// else a new pipeline with in, of shape s, as its source.
func pipelineOver(in physOp, s *shape, cfg Config, open func(*pipelineOp) bool) *pipelineOp {
	if p, ok := in.(*pipelineOp); ok && open(p) {
		return p
	}
	names := make([]string, len(s.tables))
	for i, t := range s.tables {
		names[i] = t.Schema.Name
	}
	return &pipelineOp{src: in, srcRows: s.rows, tables: strings.Join(names, "⋈"),
		limitN: -1, par: planPar(cfg, s.rows), model: cfg.Model}
}

// open reports whether a filter or sink may still join the pipeline:
// no sink and no Limit above it yet.
func (o *pipelineOp) open() bool { return o.proj == nil && o.gagg == nil && o.limitN < 0 }

// probeAt reports whether the HashProbe stage runs right before
// filter i (i == len(filters): after the last one).
func (o *pipelineOp) probeAt(i int) bool { return o.probe != nil && o.probe.at == i }

// limitable reports whether a Limit may still join the pipeline: a
// Limit over an aggregate's tiny result is a plain slice instead.
func (o *pipelineOp) limitable() bool { return o.gagg == nil && o.limitN < 0 }

func (o *pipelineOp) label() string {
	head, _, _ := strings.Cut(o.src.label(), "[")
	if len(o.filters) > 0 && o.filters[0].css {
		head = "CSSTree"
	} else if len(o.filters) > 0 && o.filters[0].base {
		head = "Select"
	}
	parts := []string{head}
	for i := 0; i <= len(o.filters); i++ {
		if o.probeAt(i) {
			parts = append(parts, "HashProbe")
		}
		if i < len(o.filters) && !o.filters[i].base {
			parts = append(parts, "Refilter")
		}
	}
	switch {
	case o.proj != nil:
		parts = append(parts, "Project")
	case o.gagg != nil && o.gagg.strat == aggRadix:
		parts = append(parts, "Agg[radix]")
	case o.gagg != nil:
		parts = append(parts, "Agg")
	}
	if o.limitN >= 0 {
		parts = append(parts, "Limit")
	}
	return fmt.Sprintf("Pipeline[%s]", strings.Join(parts, "→"))
}

func (o *pipelineOp) detail() string {
	var buf [8]access
	read, written := costmodel.Bytes(o.saved(buf[:0])...)
	return fmt.Sprintf("%s  vec=%d rows  par=%d  saves~%s traffic",
		o.tables, o.vecRows(), o.par, fmtBytes(read+written))
}

// kids lists the source, then the fused stages in execution order as
// explain-only adapters.
func (o *pipelineOp) kids() []physOp {
	kids := []physOp{o.src}
	stage := func(s stageInfo) { kids = append(kids, &pipeStageOp{inner: s, model: o.model}) }
	for i := 0; i <= len(o.filters); i++ {
		if o.probeAt(i) {
			kids = append(kids, &pipeStageOp{inner: o.probe, model: o.model, build: o.probe.build})
		}
		if i < len(o.filters) {
			stage(&o.filters[i])
		}
	}
	if o.proj != nil {
		stage(o.proj)
	}
	if o.gagg != nil {
		stage(o.gagg)
	}
	if o.limitN >= 0 {
		stage(&limitOp{n: o.limitN})
	}
	return kids
}

// predicted is the fused stages' summed prediction net of the
// intermediate traffic fusion saves (the source prices itself).
func (o *pipelineOp) predicted() costmodel.Breakdown {
	var sum costmodel.Breakdown
	for _, f := range o.filters {
		sum = sum.Add(f.cost)
	}
	if o.probe != nil {
		sum = sum.Add(o.probe.cost)
	}
	if o.proj != nil {
		sum = sum.Add(o.proj.cost)
	}
	if o.gagg != nil {
		sum = sum.Add(o.gagg.cost)
	}
	var buf [8]access
	return subClamp(sum, o.model.Price(o.saved(buf[:0])...))
}

// fmtBytes renders a byte count at a human scale.
func fmtBytes(b float64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMB", b/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKB", b/(1<<10))
	default:
		return fmt.Sprintf("%.0fB", b)
	}
}

// pipeStageOp adapts a fused stage for EXPLAIN: the pipeline prints
// its member stages with their per-stage details and predictions, but
// the stages report a zero breakdown so Predicted() counts the
// pipeline's net cost exactly once. A HashProbe stage lists its inner
// input as its child.
type pipeStageOp struct {
	inner stageInfo
	model *costmodel.Model
	build physOp // HashProbe: the inner input
}

func (s *pipeStageOp) exec(*execCtx) (*fragment, error) {
	return nil, fmt.Errorf("engine: pipeline stage executed outside its pipeline")
}
func (s *pipeStageOp) label() string { return s.inner.label() }
func (s *pipeStageOp) detail() string {
	d := s.inner.detail()
	if c := s.inner.predicted(); c != emptyBreakdown {
		kind := costmodel.KindOf(s.inner.label())
		d = fmt.Sprintf("%s  [stage pred %.2f ms]", d, s.model.Millis(kind, c))
	}
	return d
}
func (s *pipeStageOp) kids() []physOp {
	if s.build != nil {
		return []physOp{s.build}
	}
	return nil
}
func (s *pipeStageOp) predicted() costmodel.Breakdown { return costmodel.Breakdown{} }

// estOut is the estimated fraction of source rows surviving all
// filters.
func (o *pipelineOp) estOut() float64 {
	f := 1.0
	for _, fl := range o.filters {
		f *= fl.est
	}
	return f
}

// saved appends to d what fusing the stages saves an
// operator-at-a-time execution of them: only the terms the stage
// descriptions charge for intermediates — the OID-list writes between
// filters (their 4-byte position output), each operand gather's 8-byte
// temporary and, under a hash sink, the feed's re-read of its key codes
// and measure. The pipeline's prediction subtracts its price, EXPLAIN
// prints its bytes.
func (o *pipelineOp) saved(d []access) []access {
	k := o.srcRows
	for i, f := range o.filters {
		k *= f.est
		if i < len(o.filters)-1 || o.proj != nil || o.gagg != nil {
			d = append(d, access{Pattern: costmodel.Sweep, Write: true, Count: k, Width: 4})
		}
	}
	if o.gagg != nil {
		for range o.gagg.operands {
			d = append(d, access{Pattern: costmodel.Sweep, Write: true, Count: k, Width: 8})
		}
		if o.gagg.strat == aggHash {
			d = append(d, access{Pattern: costmodel.Sweep, Count: k, Width: 10})
		}
	}
	return d
}

// rowFootprint estimates the per-row working-set bytes of one pipeline
// vector: the row vector plus every value the stages and sink touch
// per kept row — what must stay cache-resident.
func (o *pipelineOp) rowFootprint() int {
	b := 4 // row vector entry
	for _, f := range o.filters {
		if !f.base {
			b += f.col.Width()
		}
	}
	if o.probe != nil {
		b += 20 // the key, widened and as uint32, plus an (outer, inner) row pair
	}
	switch {
	case o.proj != nil:
		for _, pc := range o.proj.cols {
			b += max(pc.col.Width(), 8) // widened on materialization
		}
	case o.gagg != nil:
		// key code + measure value (temporary or run) + operand scratch
		b += 16 + 8*len(o.gagg.operands)
	default:
		b += 8 // OID output
	}
	return b
}

// vecRows sizes a stage vector so the pipeline's working set occupies
// at most a quarter of L2 — leaving room for the streamed columns —
// less what a hash sink's aggregation table and a HashProbe's inner
// table take of it (at most half each: §3.2's cache-resident regime is
// the tables', the vector yields). Powers of two in [256, 64K].
func (o *pipelineOp) vecRows() int {
	budget := o.model.M.L2.Size / 4
	if o.gagg != nil && o.gagg.strat == aggHash {
		table := o.gagg.tableGroups(int(o.srcRows)) * agg.GroupTableBytesPerGroup
		budget -= min(table, budget/2)
	}
	if o.probe != nil {
		budget -= min(int(probeFootprint(o.probe.buildRows)), budget/2)
	}
	v := budget / max(o.rowFootprint(), 12)
	p := 256
	for p*2 <= v && p < 1<<16 {
		p *= 2
	}
	return p
}

// ---------------------------------------------------------------------
// Execution.

// resolvedFilter is a pipeline filter with its predicate resolved to a
// kernel-ready form (dictionary codes looked up, CSS-tree ranges
// marked, once per run).
type resolvedFilter struct {
	*pipeFilter
	kind  uint8
	lo    int64 // range lower bound, or the dictionary code
	hi    int64
	sv    *bat.StrVec
	val   string
	tree  *sel.CSSTree // fCSS: the tree that marked the bitmap
	marks []uint64     // fCSS: one bit per row, set where the range matches
}

// resolvedFilter kinds.
const (
	fRange uint8 = iota // numeric range
	fCode               // encoded string equality → code compare
	fStr                // unencoded string equality
	fCSS                // CSS-tree range → drain the marked bitmap
	fMiss               // nothing matches (dictionary miss, empty range)
)

func (o *pipelineOp) resolveFilters(sim *memsim.Sim) ([]resolvedFilter, error) {
	out := make([]resolvedFilter, len(o.filters))
	for i := range o.filters {
		f := &o.filters[i]
		rf := resolvedFilter{pipeFilter: f}
		switch p := f.pred.(type) {
		case RangePred:
			rf.kind, rf.lo, rf.hi = fRange, p.Lo, p.Hi
			if f.css {
				if err := rf.markCSS(sim); err != nil {
					return nil, err
				}
			}
		case EqStringPred:
			switch {
			case f.col.Enc != nil:
				code, ok := f.col.Enc.Code(p.Value)
				if !ok {
					rf.kind = fMiss
				} else {
					rf.kind, rf.lo = fCode, code
				}
			default:
				sv, ok := f.col.Vec.(*bat.StrVec)
				if !ok {
					return nil, fmt.Errorf("engine: column %q is not a string column", p.Col)
				}
				rf.kind, rf.sv, rf.val = fStr, sv, p.Value
			}
		default:
			return nil, fmt.Errorf("engine: unsupported predicate %T in pipeline", f.pred)
		}
		out[i] = rf
	}
	return out, nil
}

// markCSS resolves a CSS-tree range for one run: a single descent and
// leaf scan mark every qualifying position in a fresh bitmap (n/8
// bytes, cache-resident next to the n·width-byte column) that the
// workers then drain per morsel. A range inverted or entirely outside
// the int32 domain matches nothing; clamping it would saturate the
// bounds onto real MinInt32/MaxInt32 keys.
func (f *resolvedFilter) markCSS(sim *memsim.Sim) error {
	if f.lo > f.hi || f.lo > math.MaxInt32 || f.hi < math.MinInt32 {
		f.kind = fMiss
		return nil
	}
	tree, err := cssTreeFor(sim, f.col)
	if err != nil {
		return err
	}
	f.kind, f.tree = fCSS, tree
	f.marks = make([]uint64, (f.col.Vec.Len()+63)/64)
	tree.MarkRange(sim, clampI32(f.lo), clampI32(f.hi), f.marks)
	return nil
}

// selectInto runs a base filter over the contiguous positions
// [from, to), appending matches to dst.
func (f *resolvedFilter) selectInto(from, to int, dst []int32) []int32 {
	switch f.kind {
	case fRange:
		return dsm.SelectRangePos(f.col, f.lo, f.hi, from, to, dst)
	case fCSS:
		return dsm.SelectBitsPos(f.marks, from, to, dst)
	case fCode:
		return dsm.SelectCodePos(f.col, f.lo, from, to, dst)
	case fStr:
		for i := from; i < to; i++ {
			if f.sv.Str(i) == f.val {
				dst = append(dst, int32(i))
			}
		}
		return dst
	}
	return dst // fMiss
}

// keep runs a refilter stage: rows[i] survives when its storage
// position pos[i] passes the predicate.
func (f *resolvedFilter) keep(pos, rows []int32) []int32 {
	switch f.kind {
	case fRange:
		return dsm.KeepRangePos(f.col, f.lo, f.hi, pos, rows)
	case fCode:
		return dsm.KeepCodePos(f.col, f.lo, pos, rows)
	case fStr:
		out := rows[:0]
		for i, p := range pos {
			if f.sv.Str(int(p)) == f.val {
				out = append(out, rows[i])
			}
		}
		return out
	}
	return rows[:0] // fMiss
}

// mirror is the instrumented half of a pipeline stage: it replays the
// reads of column c at the given storage positions into the simulator
// and charges WScanBUN/4 of CPU per value read, gatherAccess's per-value
// work. Stages call it right before the native kernel that does the
// real work.
func (ctx *execCtx) mirror(c *dsm.Column, pos []int32) {
	c.Vec.Bind(ctx.sim)
	for _, p := range pos {
		c.Vec.Touch(ctx.sim, int(p))
	}
	ctx.sim.AddCPU(len(pos), ctx.machine.Cost.WScanBUN/4)
}

// mirrorBase is the instrumented half of a base select over the
// positions [from, to): a scan-select reads the column there, a
// CSS-tree stage the bitmap words covering them. buf is scratch.
func (r *pipeRun) mirrorBase(f *resolvedFilter, from, to int, buf []int32) {
	switch f.kind {
	case fMiss:
	case fCSS:
		f.tree.TouchMarks(r.ctx.sim, from, to)
	default:
		for i := from; i < to; i++ {
			buf = append(buf, int32(i))
		}
		r.ctx.mirror(f.col, buf)
	}
}

// pipeChunk accumulates one morsel's pipeline output; chunks
// concatenate in morsel order, so results are byte-identical for any
// worker count.
type pipeChunk struct {
	oids [][]bat.Oid // OID-list sink, one list per source binding
	cols []RelCol    // Project sink
	rows int
	done bool
	err  error

	// Profiling-only per-stage counters (nil when disabled — the hot
	// loop pays one nil check per vector): source rows scanned, the
	// survivor count after each filter stage, and the rows a HashProbe
	// probed and the matches it found.
	scanned   int
	stageRows []int64
	probed    int64
	matched   int64
}

// kvRun is one morsel's radix-sink output: its (key, value) pairs
// clustered on the planned bits, partition p at [offs[p], offs[p+1])
// (offs is nil when no row reached the sink). base is the simulated
// address of the clustered pairs on instrumented runs.
type kvRun struct {
	keys []int64
	vals []float64
	offs []int
	base uint64
}

// pipeRun is one execution of a pipeline over its source's output.
type pipeRun struct {
	op        *pipelineOp
	ctx       *execCtx
	binds     []binding // the source fragment, then a HashProbe's inner fragment
	n         int       // source rows
	rf        []resolvedFilter
	at        int         // filters before the HashProbe (all of them without one)
	nProbe    int         // source bindings; later ones resolve through inner rows
	table     *probeTable // the HashProbe's build side (nil without one)
	sinkBinds []bool      // bindings the Project/GroupAggregate sink gathers through
	vec       int         // rows per vector
	hash      bool        // GroupAggregate[hash] sink
	radix     bool        // GroupAggregate[radix] sink
	groups    int         // hash sink: groups each worker's table is presized for
	chunks    []pipeChunk
	parts     []agg.GroupResult // hash sink: each morsel's partial
	runs      []kvRun           // radix sink: each morsel's clustered run
}

func (o *pipelineOp) exec(ctx *execCtx) (*fragment, error) {
	in, err := ctx.exec(o.src)
	if err != nil {
		return nil, err
	}
	n := in.rows()
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("engine: %d source rows overflow a pipeline's int32 row vectors", n)
	}
	rf, err := o.resolveFilters(ctx.sim)
	if err != nil {
		return nil, err
	}
	r := &pipeRun{op: o, ctx: ctx, binds: in.binds, n: n, rf: rf, at: len(rf), nProbe: len(in.binds),
		vec: o.vecRows(), chunks: make([]pipeChunk, core.MorselsOf(n))}
	if o.probe != nil {
		if r.table, err = o.probe.buildTable(ctx); err != nil {
			return nil, err
		}
		r.at = o.probe.at
		r.binds = append(append([]binding{}, in.binds...), r.table.binds...)
	}
	r.sinkBinds = make([]bool, len(r.binds))
	switch {
	case o.proj != nil:
		for _, pc := range o.proj.cols {
			r.sinkBinds[pc.bindIdx] = true
		}
	case o.gagg != nil:
		r.sinkBinds[o.gagg.bindIdx] = true
		for _, op := range o.gagg.operands {
			r.sinkBinds[op.bindIdx] = true
		}
		if o.gagg.strat == aggHash {
			r.hash, r.groups = true, o.gagg.tableGroups(n)
			r.parts = make([]agg.GroupResult, len(r.chunks))
		} else {
			r.radix = true
			r.runs = make([]kvRun, len(r.chunks))
		}
	}
	if ctx.prof != nil {
		for m := range r.chunks {
			r.chunks[m].stageRows = make([]int64, len(rf))
		}
	}
	if err := r.run(); err != nil {
		return nil, err
	}
	if ctx.prof != nil {
		r.recordStages()
	}
	return r.assemble()
}

// recordStages summarizes the fused stages as profile nodes: rows in
// and out per stage (from the profiling counters the morsel loop kept)
// and each stage's bytes, its description evaluated on those rows.
// Stages carry no own wall time — they interleave per vector inside
// the pipeline's time.
func (r *pipeRun) recordStages() {
	prof, model := r.ctx.prof, r.ctx.model
	var in, fed int64
	stage := make([]int64, len(r.op.filters))
	for m := range r.chunks {
		in += int64(r.chunks[m].scanned)
		for i, s := range r.chunks[m].stageRows {
			stage[i] += s
		}
		fed += int64(r.chunks[m].rows)
	}
	for i := 0; i <= len(r.op.filters); i++ {
		if r.op.probeAt(i) {
			var probed, matched int64
			for m := range r.chunks {
				probed += r.chunks[m].probed
				matched += r.chunks[m].matched
			}
			s := r.op.probe
			d := s.probeAccess(float64(probed), float64(r.table.pairs.Len()), model)
			read, written := bytesOf(d[:]...)
			prof.addStage("HashProbe", fmt.Sprintf("%s = %s  build=%d rows", s.probeName,
				s.buildName, r.table.pairs.Len()), probed, matched, read, written)
			in = matched
		}
		if i < len(r.op.filters) {
			f := &r.op.filters[i]
			d := f.accesses(float64(in), float64(stage[i]), model)
			read, written := bytesOf(d[:]...)
			prof.addStage(f.label(), fmt.Sprint(f.pred), in, stage[i], read, written)
			in = stage[i]
		}
	}
	// gathers adds one gatherAccess of fed rows into width-byte values.
	var read, written int64
	gathers := func(c *dsm.Column, width int) {
		d := gatherAccess(float64(fed), c, width, model)
		gr, gw := bytesOf(d[:]...)
		read, written = read+gr, written+gw
	}
	switch {
	case r.op.proj != nil:
		for _, pc := range r.op.proj.cols {
			gathers(pc.col, pc.col.Width())
		}
		prof.addStage("Project", r.op.proj.detail(), in, fed, read, written)
	case r.op.gagg != nil:
		g := r.op.gagg
		f := g.feedAccess(float64(fed), model)
		read, written = bytesOf(f[:]...)
		for _, oc := range g.operands {
			gathers(oc.col, 8)
		}
		prof.addStage(fmt.Sprintf("AggFeed[%s]", g.strat), g.detail(), in, fed, read, written)
	default:
		prof.addStage("OIDs", "", in, fed, 0, 0)
	}
	if r.op.limitN >= 0 {
		prof.addStage("Limit", fmt.Sprintf("%d", r.op.limitN), fed, min(fed, int64(r.op.limitN)), 0, 0)
	}
}

// run drains the morsels over the worker pool (serially under a
// simulator). With a Limit probe the loop stops scheduling morsels as
// soon as a contiguous prefix of completed morsels has produced enough
// rows — the short-circuit that makes Limit-without-OrderBy stop
// consuming input.
func (r *pipeRun) run() error {
	ctx := r.ctx
	workers := ctx.par(r.n)
	if workers <= 1 {
		produced := 0
		for m := range r.chunks {
			var start int64
			if ctx.spans != nil {
				start = ctx.spans.Clock()
			}
			r.runMorsel(ctx.arena(0), m)
			if ctx.spans != nil {
				ctx.spans.Record(0, m, start)
			}
			if err := r.chunks[m].err; err != nil {
				return err
			}
			produced += r.chunks[m].rows
			if r.op.limitN >= 0 && produced >= r.op.limitN {
				break
			}
		}
		return nil
	}
	if r.op.limitN < 0 {
		core.ForEachSpan(workers, len(r.chunks), ctx.spans, func(w, m int) {
			r.runMorsel(ctx.arena(w), m)
		})
	} else {
		r.runLimited(workers)
	}
	for m := range r.chunks {
		if err := r.chunks[m].err; err != nil {
			return err
		}
	}
	return nil
}

// runLimited is the parallel morsel loop with the Limit short-circuit:
// workers pull morsel indexes off a shared counter; whenever the
// contiguous prefix of completed morsels reaches the limit, the fence
// drops and later morsels are never claimed. Which morsels run beyond
// the fence depends on scheduling, but the output never does — assemble
// cuts at the deterministic prefix.
func (r *pipeRun) runLimited(workers int) {
	nm := len(r.chunks)
	var next, fence atomic.Int64
	fence.Store(int64(nm))
	var mu sync.Mutex
	frontier, cum := 0, 0
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			a := r.ctx.arena(w)
			for {
				m := int(next.Add(1) - 1)
				if m >= nm || int64(m) >= fence.Load() {
					return
				}
				var start int64
				if r.ctx.spans != nil {
					start = r.ctx.spans.Clock()
				}
				r.runMorsel(a, m)
				if r.ctx.spans != nil {
					r.ctx.spans.Record(w, m, start)
				}
				mu.Lock()
				r.chunks[m].done = true
				for frontier < nm && r.chunks[frontier].done {
					cum += r.chunks[frontier].rows
					frontier++
					if cum >= r.op.limitN {
						if int64(frontier) < fence.Load() {
							fence.Store(int64(frontier))
						}
						break
					}
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
}

// runMorsel executes the fused stages over morsel m, iterating
// cache-sized vectors of source row indices; all scratch comes from
// the worker's arena. Under a simulator every kernel call is preceded
// by the touch pass mirroring its reads.
func (r *pipeRun) runMorsel(a *pipeArena, m int) {
	lo, hi := core.MorselBounds(m, r.n)
	ch := &r.chunks[m]
	sim := r.ctx.sim
	a.ensure(r.vec, len(r.binds), r.op.gagg, r.table != nil)
	if r.hash {
		a.agg.Presize(r.groups, sim)
	}
	r.initChunk(a, ch, hi-lo)
	base := len(r.rf) > 0 && r.rf[0].base
	for vlo := lo; vlo < hi; vlo += r.vec {
		vhi := min(vlo+r.vec, hi)
		if ch.stageRows != nil {
			ch.scanned += vhi - vlo
		}
		rows, fi := a.rows[:0], 0
		if base {
			f := &r.rf[0]
			if sim != nil {
				r.mirrorBase(f, vlo, vhi, rows)
			}
			rows = f.selectInto(vlo, vhi, rows)
			if ch.stageRows != nil {
				ch.stageRows[0] += int64(len(rows))
			}
			fi = 1
		} else {
			for i := vlo; i < vhi; i++ {
				rows = append(rows, int32(i))
			}
		}
		var err error
		for i := fi; i < r.at && len(rows) > 0; i++ {
			if rows, err = r.refilter(a, &r.rf[i], rows); err != nil {
				ch.err = err
				return
			}
			if ch.stageRows != nil {
				ch.stageRows[i] += int64(len(rows))
			}
		}
		if len(rows) == 0 {
			continue
		}
		var done bool
		if r.table != nil {
			done, err = r.probeVec(a, rows, ch)
		} else {
			done, err = r.flush(a, rows, nil, r.at, ch)
		}
		if err != nil {
			ch.err = err
			return
		}
		if done {
			return // the rest of the morsel lies beyond the Limit
		}
	}
	switch {
	case r.hash:
		r.parts[m] = a.agg.Compact()
	case r.radix:
		r.runs[m], ch.err = r.clusterRun(a)
	}
}

// refilter runs refilter stage f over a vector of source rows,
// keeping the rows whose binding position passes.
func (r *pipeRun) refilter(a *pipeArena, f *resolvedFilter, rows []int32) ([]int32, error) {
	pos, err := a.positions(r.binds, f.bindIdx, rows)
	if err != nil {
		return nil, err
	}
	if r.ctx.sim != nil && f.kind != fMiss {
		r.ctx.mirror(f.col, pos)
	}
	return f.keep(pos, rows), nil
}

// flush runs the refilter stages from stage from on over a vector —
// above a HashProbe over aligned (outer row, inner row) vectors, brows
// holding the inner rows; nil elsewhere — and hands the survivors to
// the sink. It reports whether the morsel reached the pipeline's Limit.
func (r *pipeRun) flush(a *pipeArena, rows, brows []int32, from int, ch *pipeChunk) (bool, error) {
	var err error
	for i := from; i < len(r.rf) && len(rows) > 0; i++ {
		if brows != nil {
			rows, brows, err = r.refilterPairs(a, &r.rf[i], rows, brows)
		} else {
			rows, err = r.refilter(a, &r.rf[i], rows)
		}
		if err != nil {
			return false, err
		}
		if ch.stageRows != nil {
			ch.stageRows[i] += int64(len(rows))
		}
	}
	if len(rows) == 0 {
		return false, nil
	}
	if err := r.emit(a, rows, brows, ch); err != nil {
		return false, err
	}
	ch.rows += len(rows)
	return r.op.limitN >= 0 && ch.rows >= r.op.limitN, nil
}

// clusterRun radix-clusters the morsel's run in the arena on the
// planned bits, on the worker that produced it: natively with the
// serial core.RadixClusterKV, under a simulator with
// core.RadixClusterKVSim, which mirrors every pass. Planned radix grouping has bits ≥ 1, so the
// clustered arrays are fresh copies and the arena's run is free for
// the worker's next morsel.
func (r *pipeRun) clusterRun(a *pipeArena) (kvRun, error) {
	if len(a.runKeys) == 0 {
		return kvRun{}, nil
	}
	g := r.op.gagg
	if sim := r.ctx.sim; sim != nil {
		k, v, offs, base, err := core.RadixClusterKVSim(sim, a.runKeys, a.runVals, a.runBase, g.radixBits, g.radixPass)
		return kvRun{keys: k, vals: v, offs: offs, base: base}, err
	}
	k, v, offs, err := core.RadixClusterKV(a.runKeys, a.runVals, g.radixBits, g.radixPass, core.Serial())
	return kvRun{keys: k, vals: v, offs: offs}, err
}

// initChunk pre-sizes a morsel's output buffers — a radix sink's run
// lives in the worker's arena — from the planner's selectivity
// estimate (and the Limit, if any).
func (r *pipeRun) initChunk(a *pipeArena, ch *pipeChunk, rows int) {
	est := min(int(r.op.estOut()*float64(rows))+16, rows)
	if r.op.limitN >= 0 {
		est = min(est, r.op.limitN)
	}
	switch {
	case r.op.proj != nil:
		ch.cols = make([]RelCol, len(r.op.proj.cols))
		for i, pc := range r.op.proj.cols {
			rc := RelCol{Name: pc.name, Kind: colKind(pc.col)}
			switch rc.Kind {
			case KInt:
				rc.Ints = make([]int64, 0, est)
			case KFloat:
				rc.Floats = make([]float64, 0, est)
			default:
				rc.Strs = make([]string, 0, est)
			}
			ch.cols[i] = rc
		}
	case r.radix:
		if cap(a.runKeys) < est {
			a.runKeys, a.runVals = make([]int64, 0, est), make([]float64, 0, est)
		}
		a.runKeys, a.runVals = a.runKeys[:0], a.runVals[:0]
		if r.ctx.sim != nil {
			a.runBase = r.ctx.sim.Alloc(agg.PairBytes * rows)
		}
	case r.hash:
	default:
		ch.oids = make([][]bat.Oid, len(r.binds))
		for bi := range ch.oids {
			ch.oids[bi] = make([]bat.Oid, 0, est)
		}
	}
}

// emit runs the sink over one vector of surviving source rows and,
// above a HashProbe, the inner rows aligned with them.
func (r *pipeRun) emit(a *pipeArena, rows, brows []int32, ch *pipeChunk) error {
	for bi, used := range r.sinkBinds {
		if used {
			pos, err := a.positions(r.binds, bi, r.rowsOf(bi, rows, brows))
			if err != nil {
				return err
			}
			a.view[bi] = pos
		}
	}
	sim := r.ctx.sim
	switch {
	case r.op.proj != nil:
		for i, pc := range r.op.proj.cols {
			pos := a.view[pc.bindIdx]
			if sim != nil {
				r.ctx.mirror(pc.col, pos)
			}
			rc := &ch.cols[i]
			switch rc.Kind {
			case KInt:
				rc.Ints = dsm.AppendIntsPos(rc.Ints, pc.col, pos)
			case KFloat:
				rc.Floats = dsm.AppendFloatsPos(rc.Floats, pc.col, pos)
			default:
				strs, err := dsm.AppendStringsPos(rc.Strs, pc.col, pos)
				if err != nil {
					return err
				}
				rc.Strs = strs
			}
		}
	case r.op.gagg != nil:
		g := r.op.gagg
		kpos := a.view[g.bindIdx]
		if sim != nil {
			r.ctx.mirror(g.keyCol, kpos)
		}
		keys := a.runKeys // a radix sink appends to its run; the hash sink gathers into scratch
		if r.hash {
			keys = a.keys[:0]
		}
		if g.keyCol.Enc != nil {
			keys = dsm.AppendCodesPos(keys, g.keyCol, kpos)
		} else {
			keys = dsm.AppendIntsPos(keys, g.keyCol, kpos)
		}
		for ci, op := range g.operands {
			pos := a.view[op.bindIdx]
			if sim != nil {
				r.ctx.mirror(op.col, pos)
			}
			a.ops[ci] = dsm.GatherFloatsPos(op.col, pos, a.ops[ci])
		}
		vals := evalVec(g.measure, a.ops, a.tmp, len(rows), 0)
		if r.hash {
			a.keys = keys
			a.agg.Fold(keys, vals)
			break
		}
		if sim != nil {
			for i := range vals {
				sim.Write(a.runBase+uint64(len(a.runVals)+i)*agg.PairBytes, agg.PairBytes)
			}
		}
		a.runKeys = keys
		a.runVals = append(a.runVals, vals...)
	default:
		for bi, b := range r.binds {
			for _, row := range r.rowsOf(bi, rows, brows) {
				ch.oids[bi] = append(ch.oids[bi], b.rowOid(int(row)))
			}
		}
	}
	return nil
}

// assemble concatenates the morsel chunks in morsel order (cutting at
// the Limit, if any) and builds the output fragment.
func (r *pipeRun) assemble() (*fragment, error) {
	chunks, total := r.chunks, 0
	for m := range chunks {
		total += chunks[m].rows
		if r.op.limitN >= 0 && total >= r.op.limitN {
			chunks, total = chunks[:m+1], r.op.limitN
			break
		}
	}
	switch {
	case r.op.proj != nil:
		rel := &Rel{N: total, Cols: make([]RelCol, len(r.op.proj.cols))}
		for i, pc := range r.op.proj.cols {
			rc := RelCol{Name: pc.name, Kind: colKind(pc.col)}
			switch rc.Kind {
			case KInt:
				rc.Ints = concat(chunks, total, func(ch *pipeChunk) []int64 { return ch.cols[i].Ints })
			case KFloat:
				rc.Floats = concat(chunks, total, func(ch *pipeChunk) []float64 { return ch.cols[i].Floats })
			default:
				rc.Strs = concat(chunks, total, func(ch *pipeChunk) []string { return ch.cols[i].Strs })
			}
			rel.Cols[i] = rc
		}
		return &fragment{rel: rel}, nil
	case r.hash:
		return r.op.gagg.build(r.ctx, r.mergePartials()), nil
	case r.radix:
		g := r.op.gagg
		return g.build(r.ctx, foldRuns(r.ctx, r.runs, g.radixBits, g.estGroups)), nil
	default:
		out := &fragment{binds: make([]binding, len(r.binds))}
		for bi, b := range r.binds {
			oids := concat(chunks, total, func(ch *pipeChunk) []bat.Oid { return ch.oids[bi] })
			out.binds[bi] = binding{table: b.table, oids: oids}
		}
		return out, nil
	}
}

// mergePartials merges the hash sink's per-morsel partials in morsel
// order through worker 0's table (every worker is done by now).
func (r *pipeRun) mergePartials() *agg.GroupResult {
	var ph *OpStats
	if r.ctx.prof != nil && len(r.parts) > 1 {
		ph = r.ctx.prof.beginPhase("merge", fmt.Sprintf("%d partials", len(r.parts)))
	}
	res := r.ctx.arena(0).agg.Merge(r.parts, r.ctx.sim)
	if ph != nil {
		for m := range r.parts {
			ph.InRows += int64(r.parts[m].Groups())
		}
		d := mergeAccess(float64(ph.InRows), float64(res.Groups()), r.ctx.model)
		read, written := bytesOf(d[:]...)
		r.ctx.prof.endPhase(ph, int64(res.Groups()), read, written)
	}
	return &res
}

// foldRuns is the radix sink's run-end step over the morsels'
// clustered runs. Partition p of every run folds, in morsel order,
// through one worker's agg.Table — presized for the partition's share
// of estGroups, so it stays cache-resident — and the table empties
// into the worker's buffer after each partition. Tasks take contiguous
// partition ranges in parallel; their rows are copied out in partition
// order at the end, so the buffers grow only with the groups the folds
// produce. Clustering is stable and runs fold in morsel order, so
// every group accumulates in global input order whichever worker folds
// it, as if the concatenated runs were grouped in one pass. Partitions
// own disjoint key sets, so nothing merges.
func foldRuns(ctx *execCtx, runs []kvRun, bits int, estGroups float64) *agg.GroupResult {
	nparts := 1 << bits
	groups := max(1, int(math.Ceil(estGroups))>>bits)
	workers := max(1, min(ctx.opt.Workers(), nparts))
	tasks := 1
	if workers > 1 {
		tasks = min(nparts, 4*workers) // a few per worker, so stragglers even out
	}
	var ph *OpStats
	if ctx.prof != nil {
		ph = ctx.prof.beginPhase("aggregate[partitions]",
			fmt.Sprintf("%d partitions × %d runs, %d tasks", nparts, len(runs), tasks))
	}
	// Start each buffer at the worker's share of the estimated groups,
	// at most one per pair.
	pairs := 0
	for m := range runs {
		pairs += len(runs[m].keys)
	}
	bufs := make([]agg.GroupResult, workers)
	for w := range bufs {
		bufs[w].Reserve(min(int(estGroups), pairs)/workers + 16)
	}
	type segment struct{ w, lo, hi int } // a task's rows in bufs[w]
	segs := make([]segment, tasks)
	core.ForEachSpan(workers, tasks, ctx.spans, func(w, ti int) {
		t, buf := &ctx.arena(w).agg, &bufs[w]
		t.Presize(groups, ctx.sim)
		seg := segment{w: w, lo: buf.Groups()}
		for p := ti * nparts / tasks; p < (ti+1)*nparts/tasks; p++ {
			for m := range runs {
				run := &runs[m]
				if run.offs == nil || run.offs[p] == run.offs[p+1] {
					continue
				}
				a, b := run.offs[p], run.offs[p+1]
				if ctx.sim != nil {
					for i := a; i < b; i++ {
						ctx.sim.Read(run.base+uint64(i)*agg.PairBytes, agg.PairBytes)
					}
				}
				t.Fold(run.keys[a:b], run.vals[a:b])
			}
			t.Drain(buf)
		}
		seg.hi = buf.Groups()
		segs[ti] = seg
	})
	var out *agg.GroupResult
	if workers == 1 {
		out = &bufs[0] // one worker ran the tasks in partition order
	} else {
		total := 0
		for w := range bufs {
			total += bufs[w].Groups()
		}
		out = &agg.GroupResult{}
		out.Reserve(total)
		for _, sg := range segs {
			b := &bufs[sg.w]
			out.Key = append(out.Key, b.Key[sg.lo:sg.hi]...)
			out.Count = append(out.Count, b.Count[sg.lo:sg.hi]...)
			out.Sum = append(out.Sum, b.Sum[sg.lo:sg.hi]...)
			out.Min = append(out.Min, b.Min[sg.lo:sg.hi]...)
			out.Max = append(out.Max, b.Max[sg.lo:sg.hi]...)
		}
	}
	if ph != nil {
		ph.InRows = int64(pairs)
		d := partitionsAccess(float64(pairs), float64(out.Groups()), bits, ctx.model)
		read, written := bytesOf(d[:]...)
		ctx.prof.endPhase(ph, int64(out.Groups()), read, written)
	}
	return out
}

// concat joins one sink buffer across the chunks in morsel order, cut
// to total rows. A single chunk's buffer already holds the result in
// order and is returned without a copy.
func concat[T any](chunks []pipeChunk, total int, buf func(*pipeChunk) []T) []T {
	if len(chunks) == 1 {
		return buf(&chunks[0])[:total]
	}
	out := make([]T, total)
	at := 0
	for m := range chunks {
		at += copy(out[at:], buf(&chunks[m]))
	}
	return out
}

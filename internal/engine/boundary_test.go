package engine

import (
	"fmt"
	"reflect"
	"testing"

	"monetlite/internal/bat"
	"monetlite/internal/core"
	"monetlite/internal/costmodel"
	"monetlite/internal/dsm"
	"monetlite/internal/memsim"
	"monetlite/internal/workload"
)

// Regression pins for two correctness hazards around the selection
// paths: int32-boundary predicate constants (clamping must never
// change predicate semantics) and nil-vs-empty OID lists (an empty
// selection must always be a non-nil empty slice — a nil list means
// "all rows" to a binding).

// boundaryTable holds the int32 extremes plus interior values in an
// I32 column.
func boundaryTable(t *testing.T) *dsm.Table {
	t.Helper()
	vals := []int64{-1 << 31, -1<<31 + 1, -7, 0, 7, 1<<31 - 2, 1<<31 - 1}
	schema := dsm.Schema{Name: "bound", Cols: []dsm.ColumnDef{
		{Name: "k", Type: dsm.LInt},
		{Name: "v", Type: dsm.LFloat},
	}}
	rows := make([][]any, len(vals))
	for i, v := range vals {
		rows[i] = []any{v, float64(i)}
	}
	tbl, err := dsm.Decompose(schema, rows)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := mustColumn(t, tbl, "k").Vec.(*bat.I32Vec); !ok {
		t.Fatalf("boundary column not stored as int32")
	}
	return tbl
}

func mustColumn(t *testing.T, tbl *dsm.Table, name string) *dsm.Column {
	t.Helper()
	c, err := tbl.Column(name)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// baseSelect is an access path as the planner builds it, whatever the
// cost models would choose: a pipeline whose one stage is a base
// select over a Scan — a scan-select, or with css a CSS-tree range
// select — leaving the selection as an OID list.
func baseSelect(tbl *dsm.Table, col *dsm.Column, pred Predicate, css bool) *pipelineOp {
	m := costmodel.New(memsim.Origin2000())
	return &pipelineOp{src: &scanOp{t: tbl}, limitN: -1, model: &m,
		filters: []pipeFilter{{col: col, pred: pred, base: true, css: css}}}
}

// lowerBindings lowers a plan without the default projection, so its
// root's fragment keeps the bindings.
func lowerBindings(t *testing.T, root Node, cfg Config) physOp {
	t.Helper()
	m := costmodel.New(memsim.Origin2000())
	cfg.Model = &m
	op, _, err := lower(root, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return op
}

// accessPath names the selection access path of a plan's pipeline: its
// base select stage.
func accessPath(p *PhysicalPlan) string {
	pipe, ok := p.root.(*pipelineOp)
	if !ok {
		return fmt.Sprintf("%T", p.root)
	}
	if len(pipe.filters) > 0 && pipe.filters[0].base {
		return pipe.filters[0].label()
	}
	return pipe.label()
}

// TestCSSSelectInt32Boundaries: for ranges at and beyond the int32
// domain edges, the CSS-tree stage must select exactly what the
// full-width scan-select does — out-of-domain constants route to
// empty or saturate harmlessly, never silently match boundary rows.
func TestCSSSelectInt32Boundaries(t *testing.T) {
	tbl := boundaryTable(t)
	col := mustColumn(t, tbl, "k")
	ranges := []struct {
		name   string
		lo, hi int64
	}{
		{"all of int64", -1 << 62, 1 << 62},
		{"exact domain", -1 << 31, 1<<31 - 1},
		{"above MaxInt32", 1 << 31, 1 << 40},
		{"v > MaxInt32 (the clamp bug)", 1<<31 - 1 + 1, 1<<62 - 1},
		{"below MinInt32", -1 << 40, -1<<31 - 1},
		{"straddles MaxInt32", 1<<31 - 2, 1 << 40},
		{"straddles MinInt32", -1 << 40, -1<<31 + 1},
		{"point MaxInt32", 1<<31 - 1, 1<<31 - 1},
		{"point MinInt32", -1 << 31, -1 << 31},
		{"inverted", 10, -10},
		{"inverted outside", 1 << 40, -1 << 40},
	}
	for _, r := range ranges {
		pred := RangePred{Col: "k", Lo: r.lo, Hi: r.hi}
		ctx := &execCtx{opt: core.Serial()}
		scanFrag, err := baseSelect(tbl, col, pred, false).exec(ctx)
		if err != nil {
			t.Fatal(err)
		}
		cssFrag, err := baseSelect(tbl, col, pred, true).exec(ctx)
		if err != nil {
			t.Fatal(err)
		}
		so, co := scanFrag.binds[0].oids, cssFrag.binds[0].oids
		if !reflect.DeepEqual(so, co) {
			t.Errorf("%s [%d, %d]: scan selected %v, css-tree %v", r.name, r.lo, r.hi, so, co)
		}
		if so == nil || co == nil {
			t.Errorf("%s: nil OID list (scan nil=%v, css nil=%v)", r.name, so == nil, co == nil)
		}
	}
}

// TestCSSStageMatchesScanSelect: over a random int32 column with
// duplicates, negatives and both int32 extremes, the CSS-tree stage —
// marking a bitmap once, draining it per morsel and vector — must
// select exactly the rows the scan-select does, in the same storage
// order, for random ranges (inverted, beyond int32 and empty ones
// included), through an OID sink and a Project sink with and without a
// Limit, at 1 and 4 workers. n is no multiple of 64 and the morsels
// are shrunk to 100 rows, so bitmap words straddle morsel and vector
// edges; an empty selection stays a non-nil OID list.
func TestCSSStageMatchesScanSelect(t *testing.T) {
	shrinkMorsels(t, 100)
	const n = 1237
	rng := workload.NewRNG(0xC55)
	extremes := []int64{-1 << 31, -1<<31 + 1, 1<<31 - 2, 1<<31 - 1}
	rows := make([][]any, n)
	for i := range rows {
		k := int64(rng.Intn(101) - 50)
		if rng.Intn(10) == 0 {
			k = extremes[rng.Intn(len(extremes))]
		}
		rows[i] = []any{k, float64(i)}
	}
	tbl, err := dsm.Decompose(dsm.Schema{Name: "r", Cols: []dsm.ColumnDef{
		{Name: "k", Type: dsm.LInt}, {Name: "v", Type: dsm.LFloat}}}, rows)
	if err != nil {
		t.Fatal(err)
	}
	k, v := mustColumn(t, tbl, "k"), mustColumn(t, tbl, "v")
	if _, ok := k.Vec.(*bat.I32Vec); !ok {
		t.Fatalf("key column not stored as int32")
	}
	bound := func() int64 {
		switch rng.Intn(4) {
		case 0:
			return extremes[rng.Intn(len(extremes))]
		case 1:
			return []int64{-1 << 40, -1<<31 - 1, 1 << 31, 1 << 40}[rng.Intn(4)]
		default:
			return int64(rng.Intn(141) - 70)
		}
	}
	run := func(p *pipelineOp, workers int) *fragment {
		t.Helper()
		ctx := &execCtx{opt: core.Options{Parallelism: workers}, arenas: make([]*pipeArena, workers)}
		frag, err := p.exec(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return frag
	}
	for round := 0; round < 150; round++ {
		pred := RangePred{Col: "k", Lo: bound(), Hi: bound()}
		limit := -1
		if rng.Intn(3) == 0 {
			limit = rng.Intn(400)
		}
		for _, workers := range []int{1, 4} {
			scan, css := baseSelect(tbl, k, pred, false), baseSelect(tbl, k, pred, true)
			so, co := run(scan, workers).binds[0].oids, run(css, workers).binds[0].oids
			if co == nil || !reflect.DeepEqual(so, co) {
				t.Fatalf("%v (workers=%d): css stage selected %v (nil=%v), scan-select %v",
					pred, workers, co, co == nil, so)
			}
			for _, p := range []*pipelineOp{scan, css} {
				p.proj = &projectOp{cols: []projCol{{name: "k", col: k}, {name: "v", col: v}}}
				p.limitN = limit
			}
			if sr, cr := run(scan, workers).rel, run(css, workers).rel; !reflect.DeepEqual(sr, cr) {
				t.Fatalf("%v limit %d (workers=%d): css stage projected %d rows, scan-select %d",
					pred, limit, workers, cr.N, sr.N)
			}
		}
	}
}

// TestPlannerRoutesOutOfDomainRangesToScan: the planner must not hand
// an out-of-int32-domain constant to the CSS-tree path at all, however
// selective the predicate looks.
func TestPlannerRoutesOutOfDomainRangesToScan(t *testing.T) {
	tbl := itemTable(t, 1<<16)
	// A point-like in-domain range prefers the CSS-tree (the flip test
	// pins this); the same shape beyond MaxInt32 must take the scan.
	in := mustPlan(t, &SelectNode{
		Input: &ScanNode{Table: tbl},
		Pred:  RangePred{Col: "order", Lo: 1000, Hi: 1016},
	})
	if got := accessPath(in); got != "Select[csstree]" {
		t.Fatalf("in-domain narrow range lowered to %s, want Select[csstree]", got)
	}
	for _, r := range []struct{ lo, hi int64 }{
		{1 << 31, 1<<31 + 16},
		{-1<<31 - 17, -1<<31 - 1},
		{1<<31 - 8, 1<<31 + 8},
	} {
		p := mustPlan(t, &SelectNode{
			Input: &ScanNode{Table: tbl},
			Pred:  RangePred{Col: "order", Lo: r.lo, Hi: r.hi},
		})
		if got := accessPath(p); got != "Select[scan]" {
			t.Errorf("out-of-domain range [%d, %d] lowered to %s, want Select[scan]\n%s",
				r.lo, r.hi, got, p.Explain())
		}
	}
}

// TestWholeQueryOutOfDomainRange: end to end, a predicate beyond the
// int32 domain returns the correct rows (none here), native and
// simulated.
func TestWholeQueryOutOfDomainRange(t *testing.T) {
	tbl := itemTable(t, 1<<12)
	p, err := Plan(&ProjectNode{
		Input: &SelectNode{
			Input: &ScanNode{Table: tbl},
			Pred:  RangePred{Col: "order", Lo: 1 << 31, Hi: 1 << 40},
		},
		Cols: []string{"order"},
	}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, sim := range []*memsim.Sim{nil, memsim.MustNew(p.Machine())} {
		res, err := p.Run(sim)
		if err != nil {
			t.Fatal(err)
		}
		if res.N() != 0 {
			t.Errorf("sim=%v: v in [2^31, 2^40] matched %d rows, want 0", sim != nil, res.N())
		}
	}
}

// TestEmptySelectionsAreNonNil: every selection path — the scan-select,
// CSS-tree and refilter stages of a pipeline's OID sink (over a Scan
// and a Join), and the CSS-tree stage's own empty exits — must
// normalize an empty result to a non-nil empty OID slice, so no
// consumer can mistake it for the nil "all rows" binding.
func TestEmptySelectionsAreNonNil(t *testing.T) {
	shrinkMorsels(t, 64)
	tbl := itemTable(t, 512)
	parts := partTable(t, 64)

	empties := []Predicate{
		RangePred{Col: "qty", Lo: 1000, Hi: 2000},
		EqStringPred{Col: "shipmode", Value: "NO-SUCH-MODE"},
	}
	dateSel := func(in Node) Node {
		return &SelectNode{Input: in, Pred: RangePred{Col: "date1", Lo: 8000, Hi: 10500}}
	}
	for _, pred := range empties {
		roots := map[string]Node{
			"scan-select": &SelectNode{Input: &ScanNode{Table: tbl}, Pred: pred},
			"refilter":    &SelectNode{Input: dateSel(&ScanNode{Table: tbl}), Pred: pred},
			"css refilter": &SelectNode{Pred: pred, Input: &SelectNode{Input: &ScanNode{Table: tbl},
				Pred: RangePred{Col: "order", Lo: 1100, Hi: 1110}}},
			"join refilter": &SelectNode{Pred: pred, Input: &JoinNode{Left: dateSel(&ScanNode{Table: tbl}),
				Right: &ScanNode{Table: parts}, LeftCol: "part", RightCol: "id"}},
		}
		for name, root := range roots {
			for _, workers := range []int{1, 4} {
				for _, sim := range []*memsim.Sim{nil, memsim.MustNew(memsim.Origin2000())} {
					op := lowerBindings(t, root, Config{Opt: core.Options{Parallelism: workers}})
					ctx := &execCtx{sim: sim, machine: memsim.Origin2000(), opt: core.Options{Parallelism: workers}}
					if sim != nil {
						ctx.opt = core.Serial()
					}
					frag, err := op.exec(ctx)
					if err != nil {
						t.Fatal(err)
					}
					for bi, b := range frag.binds {
						if b.oids == nil {
							t.Errorf("%s %v (workers=%d sim=%v): binding %d has nil OID list for an empty result",
								name, pred, workers, sim != nil, bi)
						} else if len(b.oids) != 0 {
							t.Errorf("%s %v: expected empty result, got %d rows", name, pred, len(b.oids))
						}
					}
				}
			}
		}
	}

	// The CSS stage's own empty exits (inverted, out-of-domain, no key).
	col := mustColumn(t, tbl, "order")
	for _, pred := range []RangePred{
		{Col: "order", Lo: 5, Hi: -5},
		{Col: "order", Lo: 1 << 40, Hi: 1 << 41},
		{Col: "order", Lo: 1 << 20, Hi: 1 << 21},
	} {
		frag, err := baseSelect(tbl, col, pred, true).exec(&execCtx{opt: core.Serial()})
		if err != nil {
			t.Fatal(err)
		}
		if frag.binds[0].oids == nil {
			t.Errorf("CSS %v: nil OID list for an empty result", pred)
		}
	}
}

package engine

import (
	"reflect"
	"strings"
	"testing"

	"monetlite/internal/core"
	"monetlite/internal/dsm"
	"monetlite/internal/memsim"
	"monetlite/internal/workload"
)

// Cross-checks for pipelines, the engine's one executor: every plan
// shape must equal the row-at-a-time oracle and be byte-identical at
// every worker count, on skewed, duplicated, empty and tiny inputs —
// float aggregates included, bit for bit across workers. Run under
// -race these tests also prove the pipeline's worker arenas and morsel
// chunks share no mutable state.

// runOracle plans and runs the same logical DAG at 1 and 4 workers,
// requiring byte-identical relations that equal the oracle's answer.
// It returns the plan's EXPLAIN.
func runOracle(t *testing.T, name string, root Node) string {
	t.Helper()
	return runOracleCfg(t, name, root, Config{})
}

// breakerMachine is the Origin2000 with 512-byte caches. Every join
// inner in these tests (50 rows and up, 856 bytes resident) outgrows
// its L2, so a join planned on it keeps the radix-clustered Join
// breaker instead of lowering to a HashProbe stage.
func breakerMachine() memsim.Machine {
	m := memsim.Origin2000()
	m.Name = "origin2k-512B"
	m.L1.Size, m.L2.Size = 256, 512
	return m
}

// joinLowerings are the two ways a join over a test-sized inner
// lowers: on the default profile into a HashProbe stage of the outer's
// pipeline, on breakerMachine into a Join breaker that sources the
// pipeline above it. source is the pipeline label's prefix each gives
// over a bare Scan; mark is what its EXPLAIN shows over any source.
var joinLowerings = []struct {
	name, source, mark string
	cfg                Config
}{
	{"probe", "Scan→HashProbe", "→HashProbe", Config{}},
	{"breaker", "Join", "Pipeline[Join", Config{Machine: breakerMachine()}},
}

// runOracleCfg is runOracle planning on cfg's machine and model.
func runOracleCfg(t *testing.T, name string, root Node, cfg Config) string {
	t.Helper()
	var want *Rel
	var explain string
	for _, workers := range []int{1, 4} {
		cfg.Opt = core.Options{Parallelism: workers}
		plan, err := Plan(root, cfg)
		if err != nil {
			t.Fatalf("%s: plan: %v", name, err)
		}
		res, err := plan.Run(nil)
		if err != nil {
			t.Fatalf("%s: run: %v\n%s", name, err, plan.Explain())
		}
		if want == nil {
			want, explain = res.Rel, plan.Explain()
			checkOracle(t, name, root, res.Rel)
			continue
		}
		if !reflect.DeepEqual(want, res.Rel) {
			t.Errorf("%s (workers=%d): result differs from the serial run\n%s", name, workers, plan.Explain())
		}
	}
	return explain
}

// TestPipelinedMatchesMaterializing is the fixed-shape suite: every
// pipeline shape over a Scan (and several breakers mixed in), on
// skewed/dup/tiny inputs, with morsels shrunk so chunk concatenation
// and the limit fence actually engage, must match the oracle's
// fully materializing, row-at-a-time evaluation.
func TestPipelinedMatchesMaterializing(t *testing.T) {
	shrinkMorsels(t, 512)
	items := itemTable(t, 8192)
	parts := partTable(t, 500)
	skew := skewTable(t, 6000)
	tiny := skewTable(t, 3)

	revenue := BinExpr{Op: '*', L: ColExpr{Name: "price"},
		R: BinExpr{Op: '-', L: ConstExpr{V: 1}, R: ColExpr{Name: "discnt"}}}

	sel := func(in Node, p Predicate) Node { return &SelectNode{Input: in, Pred: p} }
	dateSel := func(in Node) Node { return sel(in, RangePred{Col: "date1", Lo: 8000, Hi: 9999}) }

	cases := []struct {
		name string
		root Node
	}{
		{"agg over bare scan", &GroupAggNode{
			Input: &ScanNode{Table: items}, Key: "shipmode", Measure: revenue}},
		{"agg over select", &GroupAggNode{
			Input: dateSel(&ScanNode{Table: items}), Key: "shipmode", Measure: revenue}},
		{"agg over select+refilter", &GroupAggNode{
			Input: sel(dateSel(&ScanNode{Table: items}), EqStringPred{Col: "status", Value: "F"}),
			Key:   "status", Measure: ColExpr{Name: "price"}}},
		{"agg integer key skew", &GroupAggNode{
			Input: sel(&ScanNode{Table: skew}, RangePred{Col: "payload", Lo: 0, Hi: 700}),
			Key:   "k", Measure: ColExpr{Name: "v"}}},
		{"agg tiny table", &GroupAggNode{
			Input: &ScanNode{Table: tiny}, Key: "tag", Measure: ColExpr{Name: "v"}}},
		{"agg empty selection", &GroupAggNode{
			Input: sel(&ScanNode{Table: items}, RangePred{Col: "qty", Lo: -10, Hi: -5}),
			Key:   "shipmode", Measure: revenue}},
		{"agg dictionary miss", &GroupAggNode{
			Input: sel(&ScanNode{Table: items}, EqStringPred{Col: "shipmode", Value: "NOSUCH"}),
			Key:   "status", Measure: ColExpr{Name: "price"}}},
		{"project over select", &ProjectNode{
			Input: sel(&ScanNode{Table: items}, RangePred{Col: "qty", Lo: 5, Hi: 40}),
			Cols:  []string{"order", "price", "shipmode", "comment"}}},
		{"project over refilter chain", &ProjectNode{
			Input: sel(dateSel(&ScanNode{Table: items}), EqStringPred{Col: "shipmode", Value: "MAIL"}),
			Cols:  []string{"order", "qty", "price"}}},
		{"bare projection", &ProjectNode{Input: &ScanNode{Table: items}, Cols: []string{"order", "tax"}}},
		{"double refilter, default projection", sel(
			sel(dateSel(&ScanNode{Table: items}), EqStringPred{Col: "status", Value: "F"}),
			RangePred{Col: "qty", Lo: 1, Hi: 30})},
		{"refilter skew hot key", sel(
			sel(&ScanNode{Table: skew}, RangePred{Col: "payload", Lo: 0, Hi: 500}),
			RangePred{Col: "k", Lo: 0, Hi: 0})},
		{"limit over select chain", &LimitNode{
			Input: sel(dateSel(&ScanNode{Table: items}), EqStringPred{Col: "status", Value: "F"}),
			N:     37}},
		{"limit over project", &LimitNode{
			Input: &ProjectNode{
				Input: dateSel(&ScanNode{Table: items}),
				Cols:  []string{"order", "price", "shipmode"}},
			N: 100}},
		{"project over limit", &ProjectNode{
			Input: &LimitNode{Input: dateSel(&ScanNode{Table: items}), N: 1500},
			Cols:  []string{"order", "qty"}}},
		{"agg over limit", &GroupAggNode{
			Input: &LimitNode{Input: &ScanNode{Table: items}, N: 2000},
			Key:   "status", Measure: ColExpr{Name: "price"}}},
		{"limit zero", &LimitNode{
			Input: &ProjectNode{
				Input: dateSel(&ScanNode{Table: items}),
				Cols:  []string{"order"}},
			N: 0}},
		{"limit beyond input", &LimitNode{
			Input: sel(&ScanNode{Table: tiny}, RangePred{Col: "payload", Lo: 0, Hi: 1000}),
			N:     1 << 20}},
		{"pipeline feeding join", &GroupAggNode{
			Input: &JoinNode{
				Left:    sel(dateSel(&ScanNode{Table: items}), EqStringPred{Col: "shipmode", Value: "MAIL"}),
				Right:   &ScanNode{Table: parts},
				LeftCol: "part", RightCol: "id"},
			Key: "category", Measure: revenue}},
		{"orderby over pipeline project", &OrderByNode{
			Input: &ProjectNode{
				Input: sel(&ScanNode{Table: items}, RangePred{Col: "qty", Lo: 1, Hi: 25}),
				Cols:  []string{"order", "price"}},
			Col: "price", Desc: true}},
		{"project over orderby over bindings", &ProjectNode{
			Input: &OrderByNode{
				Input: sel(&ScanNode{Table: skew}, RangePred{Col: "payload", Lo: 100, Hi: 300}),
				Col:   "k"},
			Cols: []string{"k", "payload", "tag"}}},
	}
	for _, tc := range cases {
		runOracle(t, tc.name, tc.root)
	}
}

// dimTable builds a join dimension keyed by id = i/dup (dup > 1 makes
// every key match dup rows), with an int group, a float weight and an
// encoded string label.
func dimTable(t *testing.T, n, dup int) *dsm.Table {
	t.Helper()
	schema := dsm.Schema{Name: "dim", Cols: []dsm.ColumnDef{
		{Name: "id", Type: dsm.LInt},
		{Name: "grp", Type: dsm.LInt},
		{Name: "w", Type: dsm.LFloat},
		{Name: "label", Type: dsm.LString},
	}}
	labels := []string{"a", "b", "c", "d"}
	rows := make([][]any, n)
	for i := range rows {
		rows[i] = []any{int64(i / dup), int64(i % 13), float64(i%97) / 4, labels[i%len(labels)]}
	}
	tbl, err := dsm.Decompose(schema, rows)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// TestPipelinesAboveBreakersMatchOracle covers the sources a pipeline
// has besides a bare Scan: a join, lowered both ways — a HashProbe
// stage over the outer Scan and a Join breaker (refilter on the
// right-side binding, projection across both sides, an aggregate with
// operands from both, a Limit) — and a CSS-tree select, on empty,
// single-row, skewed and duplicate-heavy inputs.
func TestPipelinesAboveBreakersMatchOracle(t *testing.T) {
	shrinkMorsels(t, 256)
	inputs := []struct {
		name      string
		left, dup int
		right     int
	}{
		{"empty", 0, 1, 50},
		{"single row", 1, 1, 50},
		{"skewed", 3000, 1, 800},
		{"duplicate-heavy", 3000, 3, 2400},
	}
	for _, in := range inputs {
		skew := skewTable(t, in.left)
		dim := dimTable(t, in.right, in.dup)
		join := func() Node {
			return &JoinNode{Left: &ScanNode{Table: skew}, Right: &ScanNode{Table: dim}, LeftCol: "k", RightCol: "id"}
		}
		rightSel := func() Node { return &SelectNode{Input: join(), Pred: RangePred{Col: "grp", Lo: 2, Hi: 8}} }
		cases := []struct {
			name, stages string // stages: the pipeline label after its source
			root         Node
		}{
			{"refilter right, project both sides", "Refilter→Refilter→Project]", &ProjectNode{
				Input: &SelectNode{Input: rightSel(), Pred: EqStringPred{Col: "tag", Value: "hot"}},
				Cols:  []string{"k", "payload", "tag", "w", "label"}}},
			{"aggregate across both sides", "Refilter→Agg]", &GroupAggNode{
				Input: rightSel(), Key: "label",
				Measure: BinExpr{Op: '*', L: ColExpr{Name: "v"}, R: ColExpr{Name: "w"}}}},
			{"aggregate on a left key", "Agg]", &GroupAggNode{
				Input: join(), Key: "k", Measure: ColExpr{Name: "w"}}},
			{"limit", "Refilter→Project→Limit]", &LimitNode{
				Input: &ProjectNode{Input: rightSel(), Cols: []string{"k", "grp"}}, N: 40}},
			{"default projection", "Refilter→Project]", rightSel()},
		}
		for _, jl := range joinLowerings {
			for _, tc := range cases {
				name := in.name + " (" + jl.name + "): " + tc.name
				shape := "Pipeline[" + jl.source + "→" + tc.stages
				if ex := runOracleCfg(t, name, tc.root, jl.cfg); !strings.Contains(ex, shape) {
					t.Errorf("%s: plan lacks %s:\n%s", name, shape, ex)
				}
			}
		}
	}

	items := itemTable(t, 1<<14)
	css := func() Node {
		return &SelectNode{Input: &ScanNode{Table: items}, Pred: RangePred{Col: "order", Lo: 4000, Hi: 4600}}
	}
	for _, tc := range []struct {
		name, shape string
		root        Node
	}{
		{"css refilter project", "Pipeline[CSSTree→Refilter→Project]", &ProjectNode{
			Input: &SelectNode{Input: css(), Pred: EqStringPred{Col: "shipmode", Value: "AIR"}},
			Cols:  []string{"order", "price", "shipmode"}}},
		{"css aggregate", "Pipeline[CSSTree→Agg]", &GroupAggNode{
			Input: css(), Key: "status", Measure: ColExpr{Name: "price"}}},
		{"css limit", "Pipeline[CSSTree→Project→Limit]", &LimitNode{
			Input: &ProjectNode{Input: css(), Cols: []string{"order", "qty"}}, N: 17}},
		{"css empty", "Pipeline[CSSTree→Refilter→Agg]", &GroupAggNode{
			Input: &SelectNode{Input: css(), Pred: RangePred{Col: "qty", Lo: 900, Hi: 999}},
			Key:   "status", Measure: ColExpr{Name: "price"}}},
	} {
		if ex := runOracle(t, tc.name, tc.root); !strings.Contains(ex, tc.shape) {
			t.Errorf("%s: plan lacks %s:\n%s", tc.name, tc.shape, ex)
		}
	}
}

// TestRandomPlansPipelinedVsMaterializing is the property test: random
// select/refilter chains, optionally over a CSS-tree select or a join
// (planned both as a HashProbe stage and as a Join breaker), with
// random sinks, checked against the oracle's materializing evaluation
// at 1 and 4 workers.
func TestRandomPlansPipelinedVsMaterializing(t *testing.T) {
	shrinkMorsels(t, 256)
	items := itemTable(t, 6144)
	parts := partTable(t, 700)
	rng := workload.NewRNG(0xF00D)
	for round := 0; round < 50; round++ {
		var node Node = &ScanNode{Table: items}
		for i := rng.Intn(4); i > 0; i-- {
			p, _ := randPred(rng)
			node = &SelectNode{Input: node, Pred: p}
		}
		joined := rng.Intn(3) == 0
		if joined {
			node = &JoinNode{Left: node, Right: &ScanNode{Table: parts}, LeftCol: "part", RightCol: "id"}
			if rng.Intn(2) == 0 {
				node = &SelectNode{Input: node, Pred: EqStringPred{Col: "category", Value: workload.Categories[rng.Intn(len(workload.Categories))]}}
			}
		}
		switch rng.Intn(4) {
		case 0:
			key, _ := randKey(rng, joined)
			measure, _ := randMeasure(rng, joined)
			node = &GroupAggNode{Input: node, Key: key, Measure: measure}
		case 1:
			node = &ProjectNode{Input: node, Cols: []string{"order", "price", "shipmode"}}
		case 2:
			node = &LimitNode{
				Input: &ProjectNode{Input: node, Cols: []string{"order", "qty"}},
				N:     rng.Intn(2000),
			}
		default:
			// bare chain: the default projection
		}
		if !joined {
			runOracle(t, "random plan", node)
			continue
		}
		for _, jl := range joinLowerings {
			if ex := runOracleCfg(t, "random plan ("+jl.name+")", node, jl.cfg); !strings.Contains(ex, jl.mark) {
				t.Errorf("random plan (%s): plan lacks %s:\n%s", jl.name, jl.mark, ex)
			}
		}
	}
}

// TestOrderByLimitParallelDeterminism: OrderBy's stable sort over a
// key with heavy duplicates, followed by Limit, must produce the
// identical prefix at every worker count — tie order must come from
// storage order, never from scheduling.
func TestOrderByLimitParallelDeterminism(t *testing.T) {
	shrinkMorsels(t, 512)
	items := itemTable(t, 8192)
	// qty has ~50 distinct values over 8192 rows: dense ties.
	root := func() Node {
		return &LimitNode{
			Input: &OrderByNode{
				Input: &ProjectNode{
					Input: &SelectNode{
						Input: &ScanNode{Table: items},
						Pred:  RangePred{Col: "date1", Lo: 8000, Hi: 9999}},
					Cols: []string{"qty", "order", "price"}},
				Col: "qty", Desc: false},
			N: 50}
	}
	var want *Result
	for _, workers := range []int{1, 4, 13} {
		plan, err := Plan(root(), Config{Opt: core.Options{Parallelism: workers}})
		if err != nil {
			t.Fatal(err)
		}
		res, err := plan.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = res
			continue
		}
		if !reflect.DeepEqual(want.Rel, res.Rel) {
			t.Errorf("OrderBy+Limit differs at %d workers", workers)
		}
	}
	// The limit must actually bite, and ties must be in storage order:
	// within equal qty, the order column ascends.
	if want.N() != 50 {
		t.Fatalf("got %d rows, want 50", want.N())
	}
	qty, _ := want.Ints("qty")
	order, _ := want.Ints("order")
	for i := 1; i < want.N(); i++ {
		if qty[i] < qty[i-1] {
			t.Fatalf("qty not ascending at %d", i)
		}
		if qty[i] == qty[i-1] && order[i] <= order[i-1] {
			t.Errorf("tie at qty=%d broken out of storage order (order %d then %d)",
				qty[i], order[i-1], order[i])
		}
	}
}

// TestPipelineFusionShapes pins how plans group into pipelines: which
// source each pipeline reads and which stages it fuses.
func TestPipelineFusionShapes(t *testing.T) {
	items := itemTable(t, 8192)
	parts := partTable(t, 500)
	dateSel := &SelectNode{Input: &ScanNode{Table: items},
		Pred: RangePred{Col: "date1", Lo: 8000, Hi: 9999}}
	point := &SelectNode{Input: &ScanNode{Table: items},
		Pred: RangePred{Col: "order", Lo: 1000, Hi: 1010}}
	join := &JoinNode{Left: &ScanNode{Table: items}, Right: &ScanNode{Table: parts},
		LeftCol: "part", RightCol: "id"}
	cases := []struct {
		name string
		root Node
		want []string
	}{
		{"groupagg over scan", &GroupAggNode{
			Input: &ScanNode{Table: items}, Key: "shipmode", Measure: ColExpr{Name: "price"}},
			[]string{"Pipeline[Scan→Agg]"}},
		{"project over select", &ProjectNode{Input: dateSel, Cols: []string{"order"}},
			[]string{"Pipeline[Select→Project]"}},
		{"double select", &SelectNode{Input: dateSel,
			Pred: EqStringPred{Col: "status", Value: "F"}},
			[]string{"Pipeline[Select→Refilter→Project]"}},
		{"limit over select", &LimitNode{Input: dateSel, N: 10},
			[]string{"Pipeline[Pipeline→Project]", "Pipeline[Select→Limit]"}},
		{"bare projection", &ProjectNode{Input: &ScanNode{Table: items}, Cols: []string{"order"}},
			[]string{"Pipeline[Scan→Project]"}},
		{"css point select", &ProjectNode{Input: point, Cols: []string{"order"}},
			[]string{"Pipeline[CSSTree→Project]", "Select[csstree]"}},
		{"join then aggregate", &GroupAggNode{Input: join, Key: "category", Measure: ColExpr{Name: "price"}},
			[]string{"Pipeline[Scan→HashProbe→Agg]"}},
		{"orderby over bindings", &OrderByNode{Input: dateSel, Col: "qty"},
			[]string{"Pipeline[OrderBy→Project]", "Pipeline[Select]"}},
		{"limit over aggregate", &LimitNode{N: 3,
			Input: &GroupAggNode{Input: &ScanNode{Table: items}, Key: "shipmode", Measure: ColExpr{Name: "price"}}},
			[]string{"Limit 3", "Pipeline[Scan→Agg]"}},
	}
	for _, tc := range cases {
		plan, err := Plan(tc.root, Config{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		ex := plan.Explain()
		for _, want := range tc.want {
			if !strings.Contains(ex, want) {
				t.Errorf("%s: plan lacks %q:\n%s", tc.name, want, ex)
			}
		}
	}
}

// TestPipelineExplain: EXPLAIN must print the pipeline grouping with
// its per-stage detail, parallelism, vector size, and the predicted
// materialization-traffic saving.
func TestPipelineExplain(t *testing.T) {
	plan, err := Plan(&GroupAggNode{
		Input: &SelectNode{
			Input: &SelectNode{
				Input: &ScanNode{Table: itemTable(t, 8192)},
				Pred:  RangePred{Col: "date1", Lo: 8000, Hi: 9999}},
			Pred: EqStringPred{Col: "shipmode", Value: "MAIL"}},
		Key: "shipmode", Measure: ColExpr{Name: "price"},
	}, Config{Opt: core.Options{Parallelism: 4}})
	if err != nil {
		t.Fatal(err)
	}
	ex := plan.Explain()
	for _, want := range []string{
		"Pipeline[Select→Refilter→Agg]", "saves~", "vec=", "par=",
		"Scan item", "Select[scan]", "Select[refilter]", "GroupAggregate[array]",
	} {
		if !strings.Contains(ex, want) {
			t.Errorf("Explain missing %q:\n%s", want, ex)
		}
	}
}

// TestPipelineInstrumentedUnchanged: simulated runs execute the same
// pipeline stages serially, mirroring their reads. Two runs on fresh
// tables and fresh simulators must agree exactly (a column keeps the
// simulated addresses of the first simulator it meets), and the
// simulated result must equal the native one.
func TestPipelineInstrumentedUnchanged(t *testing.T) {
	roots := map[string]func() Node{
		"select-agg": func() Node {
			return &GroupAggNode{
				Input: &SelectNode{
					Input: &ScanNode{Table: itemTable(t, 4096)},
					Pred:  RangePred{Col: "date1", Lo: 8500, Hi: 9499}},
				Key: "shipmode", Measure: ColExpr{Name: "price"},
			}
		},
		"css-agg": func() Node {
			return &GroupAggNode{
				Input: &SelectNode{
					Input: &ScanNode{Table: itemTable(t, 1<<14)},
					Pred:  RangePred{Col: "order", Lo: 3000, Hi: 3400}},
				Key: "shipmode", Measure: ColExpr{Name: "price"},
			}
		},
		"css-refilter-project-limit": func() Node {
			return &LimitNode{N: 30, Input: &ProjectNode{
				Input: &SelectNode{
					Input: &SelectNode{Input: &ScanNode{Table: itemTable(t, 1<<14)},
						Pred: RangePred{Col: "order", Lo: 3000, Hi: 3400}},
					Pred: EqStringPred{Col: "status", Value: "F"}},
				Cols: []string{"order", "price", "status"}}}
		},
		"join-refilter-agg": func() Node {
			return &GroupAggNode{
				Input: &SelectNode{
					Input: &JoinNode{Left: &ScanNode{Table: itemTable(t, 4096)},
						Right: &ScanNode{Table: partTable(t, 500)}, LeftCol: "part", RightCol: "id"},
					Pred: EqStringPred{Col: "category", Value: workload.Categories[1]}},
				Key: "category", Measure: BinExpr{Op: '-', L: ColExpr{Name: "retail"}, R: ColExpr{Name: "price"}},
			}
		},
	}
	for name, root := range roots {
		nativePlan := mustPlan(t, root())
		if ex := nativePlan.Explain(); strings.HasPrefix(name, "css-") && !strings.Contains(ex, "Select[csstree]") {
			t.Fatalf("%s: planned without a CSS-tree stage:\n%s", name, ex)
		}
		native, err := nativePlan.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		var stats [2]memsim.Stats
		for i := range stats {
			plan, err := Plan(root(), Config{Opt: core.Options{Parallelism: 8}})
			if err != nil {
				t.Fatal(err)
			}
			sim := memsim.MustNew(plan.Machine())
			res, err := plan.Run(sim)
			if err != nil {
				t.Fatal(err)
			}
			stats[i] = sim.Stats()
			if !reflect.DeepEqual(native.Rel, res.Rel) {
				t.Errorf("%s: simulated result differs from native", name)
			}
		}
		if stats[0] != stats[1] {
			t.Errorf("%s: two fresh simulators disagree:\n%+v\n%+v", name, stats[0], stats[1])
		}
		if stats[0].Accesses == 0 || stats[0].CPUNanos == 0 {
			t.Errorf("%s: simulated run mirrored nothing: %+v", name, stats[0])
		}
	}
}

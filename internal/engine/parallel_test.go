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

// Cross-checks for morsel-driven parallel execution: every operator's
// parallel output must be byte-identical to its serial output — OIDs,
// ints, strings, and float aggregates alike — on skewed, duplicated,
// empty and tiny inputs. Run under -race these tests also prove the
// fan-out touches no shared mutable state.

// shrinkMorsels drops the morsel size so small test tables span many
// morsels (the merge paths are degenerate on a single morsel). Set
// before any goroutines spawn; restored after the test.
func shrinkMorsels(t *testing.T, rows int) {
	t.Helper()
	old := core.MorselRows
	core.MorselRows = rows
	t.Cleanup(func() { core.MorselRows = old })
}

// skewTable builds a table whose key column is heavily skewed (half
// the rows share one key, the rest cycle over many duplicates), with
// an int payload, a float measure and an encoded string tag.
func skewTable(t *testing.T, n int) *dsm.Table {
	t.Helper()
	schema := dsm.Schema{Name: "skew", Cols: []dsm.ColumnDef{
		{Name: "k", Type: dsm.LInt},
		{Name: "payload", Type: dsm.LInt},
		{Name: "v", Type: dsm.LFloat},
		{Name: "tag", Type: dsm.LString},
	}}
	tags := []string{"hot", "warm", "cold"}
	rng := workload.NewRNG(77)
	rows := make([][]any, n)
	for i := range rows {
		k := int64(0) // the hot key
		if i%2 == 1 {
			k = int64(1 + rng.Intn(n/4+1)) // long tail of duplicates
		}
		rows[i] = []any{k, int64(rng.Intn(1000)), float64(rng.Intn(1 << 20)), tags[rng.Intn(len(tags))]}
	}
	tbl, err := dsm.Decompose(schema, rows)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// runBoth plans and runs the same logical DAG under cfg serially and
// with the given parallelism, requiring byte-identical relations.
func runBoth(t *testing.T, name string, root Node, cfg Config, workers int) {
	t.Helper()
	cfg.Opt = core.Serial()
	serialPlan, err := Plan(root, cfg)
	if err != nil {
		t.Fatalf("%s: serial plan: %v", name, err)
	}
	serial, err := serialPlan.Run(nil)
	if err != nil {
		t.Fatalf("%s: serial run: %v", name, err)
	}
	cfg.Opt = core.Options{Parallelism: workers}
	parPlan, err := Plan(root, cfg)
	if err != nil {
		t.Fatalf("%s: parallel plan: %v", name, err)
	}
	par, err := parPlan.Run(nil)
	if err != nil {
		t.Fatalf("%s: parallel run: %v", name, err)
	}
	if !reflect.DeepEqual(serial.Rel, par.Rel) {
		t.Errorf("%s: parallel result differs from serial (serial %d rows, parallel %d)\n%s",
			name, serial.N(), par.N(), parPlan.Explain())
	}
}

func TestParallelOperatorsMatchSerial(t *testing.T) {
	shrinkMorsels(t, 512)
	items := itemTable(t, 8192)
	parts := partTable(t, 500)
	skew := skewTable(t, 6000)
	tiny := skewTable(t, 3)

	revenue := BinExpr{Op: '*', L: ColExpr{Name: "price"},
		R: BinExpr{Op: '-', L: ConstExpr{V: 1}, R: ColExpr{Name: "discnt"}}}

	cases := []struct {
		name string
		root Node
	}{
		{"scan-select range", &SelectNode{
			Input: &ScanNode{Table: items}, Pred: RangePred{Col: "date1", Lo: 8500, Hi: 9499}}},
		{"scan-select string", &SelectNode{
			Input: &ScanNode{Table: items}, Pred: EqStringPred{Col: "shipmode", Value: "MAIL"}}},
		{"scan-select empty", &SelectNode{
			Input: &ScanNode{Table: items}, Pred: RangePred{Col: "qty", Lo: -100, Hi: -50}}},
		{"refilter chain", &SelectNode{
			Input: &SelectNode{
				Input: &ScanNode{Table: items}, Pred: RangePred{Col: "date1", Lo: 8000, Hi: 9999}},
			Pred: EqStringPred{Col: "status", Value: "F"}}},
		{"refilter to empty", &SelectNode{
			Input: &SelectNode{
				Input: &ScanNode{Table: items}, Pred: RangePred{Col: "date1", Lo: 8000, Hi: 9999}},
			Pred: EqStringPred{Col: "shipmode", Value: "NOSUCH"}}},
		{"project gathers", &ProjectNode{
			Input: &SelectNode{
				Input: &ScanNode{Table: items}, Pred: RangePred{Col: "qty", Lo: 5, Hi: 40}},
			Cols: []string{"order", "price", "shipmode", "comment"}}},
		{"default projection join", &JoinNode{
			Left:    &SelectNode{Input: &ScanNode{Table: items}, Pred: RangePred{Col: "date1", Lo: 8500, Hi: 9499}},
			Right:   &ScanNode{Table: parts},
			LeftCol: "part", RightCol: "id"}},
		{"join group-aggregate", &GroupAggNode{
			Input: &JoinNode{
				Left:    &ScanNode{Table: items},
				Right:   &ScanNode{Table: parts},
				LeftCol: "part", RightCol: "id"},
			Key: "category", Measure: revenue}},
		{"group-aggregate skewed dup keys", &GroupAggNode{
			Input: &ScanNode{Table: skew}, Key: "k", Measure: ColExpr{Name: "v"}}},
		{"group-aggregate encoded key", &GroupAggNode{
			Input: &ScanNode{Table: skew}, Key: "tag", Measure: ColExpr{Name: "v"}}},
		{"refilter on skew", &SelectNode{
			Input: &SelectNode{
				Input: &ScanNode{Table: skew}, Pred: RangePred{Col: "payload", Lo: 0, Hi: 500}},
			Pred: RangePred{Col: "k", Lo: 0, Hi: 0}}},
		{"tiny table aggregate", &GroupAggNode{
			Input: &ScanNode{Table: tiny}, Key: "tag", Measure: ColExpr{Name: "v"}}},
		{"orderby limit tail", &LimitNode{
			Input: &OrderByNode{
				Input: &ProjectNode{
					Input: &SelectNode{
						Input: &ScanNode{Table: items}, Pred: RangePred{Col: "qty", Lo: 1, Hi: 30}},
					Cols: []string{"order", "price"}},
				Col: "price", Desc: true},
			N: 25}},
	}
	// Every case plans on both lowerings' machines, so the joins run
	// as a HashProbe stage and as a Join breaker.
	for _, jl := range joinLowerings {
		for _, tc := range cases {
			for _, workers := range []int{2, 4, 13} {
				runBoth(t, tc.name+" ("+jl.name+")", tc.root, jl.cfg, workers)
			}
		}
	}
}

// TestMorselMergeMatchesGroundTruth pins the multi-morsel merge paths
// against the row-at-a-time oracle, an implementation independent of
// the morsel decomposition: the concatenated chunks of a refilter
// chain, and the merged per-morsel partials of a hash aggregate. With
// morsels shrunk so the native run merges dozens of chunks and
// partials, a bug in chunk concatenation or in the partial merge
// cannot hide — unlike the parallel-vs-serial and simulated-vs-native
// checks, whose two sides share the morsel decomposition by design.
func TestMorselMergeMatchesGroundTruth(t *testing.T) {
	shrinkMorsels(t, 256)
	items := itemTable(t, 8192)

	filter := &ProjectNode{
		Input: &SelectNode{
			Input: &SelectNode{
				Input: &ScanNode{Table: items}, Pred: RangePred{Col: "date1", Lo: 8000, Hi: 9999}},
			Pred: EqStringPred{Col: "shipmode", Value: "MAIL"}},
		Cols: []string{"order", "qty", "shipmode"}}
	plan, err := Plan(filter, Config{Opt: core.Options{Parallelism: 7}})
	if err != nil {
		t.Fatal(err)
	}
	native, err := plan.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	checkOracle(t, "morsel refilter", filter, native.Rel)

	// Group-aggregate: keys, counts, min and max must match the oracle
	// exactly; sums associate differently across partials, so
	// checkOracle gives them a relative tolerance.
	gagg := &GroupAggNode{
		Input: &SelectNode{
			Input: &ScanNode{Table: items}, Pred: RangePred{Col: "qty", Lo: 1, Hi: 45}},
		Key: "shipmode", Measure: BinExpr{Op: '*', L: ColExpr{Name: "price"}, R: ColExpr{Name: "qty"}}}
	plan, err = Plan(gagg, Config{Opt: core.Options{Parallelism: 7}})
	if err != nil {
		t.Fatal(err)
	}
	native, err = plan.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if native.N() == 0 {
		t.Fatal("empty grouping checks nothing")
	}
	checkOracle(t, "morsel grouping", gagg, native.Rel)
}

// TestParallelGroupAggManyGroups: a near-unique integer key saturates
// the planner's group estimate and stresses the partial-merge path
// with group counts in the thousands — results must still match the
// serial run exactly, with no panic on the under-estimated sizing.
func TestParallelGroupAggManyGroups(t *testing.T) {
	shrinkMorsels(t, 256)
	schema := dsm.Schema{Name: "wide", Cols: []dsm.ColumnDef{
		{Name: "k", Type: dsm.LInt},
		{Name: "v", Type: dsm.LFloat},
	}}
	const n = 5000
	rng := workload.NewRNG(5)
	rows := make([][]any, n)
	for i := range rows {
		rows[i] = []any{int64(rng.Intn(n)), float64(i) * 0.25}
	}
	tbl, err := dsm.Decompose(schema, rows)
	if err != nil {
		t.Fatal(err)
	}
	runBoth(t, "many groups", &GroupAggNode{
		Input: &ScanNode{Table: tbl}, Key: "k", Measure: ColExpr{Name: "v"}}, Config{}, 8)
}

// TestInstrumentedRunStaysSerial: the simulator models a single CPU,
// so a parallel configuration must not change an instrumented run in
// any way — identical results and identical simulated access counts.
func TestInstrumentedRunStaysSerial(t *testing.T) {
	shrinkMorsels(t, 512)
	root := func() Node {
		return &GroupAggNode{
			Input: &SelectNode{
				Input: &ScanNode{Table: itemTable(t, 4096)},
				Pred:  RangePred{Col: "date1", Lo: 8500, Hi: 9499},
			},
			Key: "shipmode", Measure: ColExpr{Name: "price"},
		}
	}
	stats := make([]memsim.Stats, 2)
	rels := make([]*Rel, 2)
	for i, opt := range []core.Options{core.Serial(), {Parallelism: 8}} {
		plan, err := Plan(root(), Config{Opt: opt})
		if err != nil {
			t.Fatal(err)
		}
		sim := memsim.MustNew(plan.Machine())
		res, err := plan.Run(sim)
		if err != nil {
			t.Fatal(err)
		}
		stats[i] = sim.Stats()
		rels[i] = res.Rel
	}
	if stats[0] != stats[1] {
		t.Errorf("instrumented run changed under Parallelism=8:\nserial   %+v\nparallel %+v", stats[0], stats[1])
	}
	if !reflect.DeepEqual(rels[0], rels[1]) {
		t.Error("instrumented results differ between serial and parallel configuration")
	}
}

// TestExplainShowsParallelism: EXPLAIN must annotate each
// morsel-driven operator with its planned degree of parallelism.
func TestExplainShowsParallelism(t *testing.T) {
	shrinkMorsels(t, 512)
	plan, err := Plan(&GroupAggNode{
		Input: &SelectNode{
			Input: &ScanNode{Table: itemTable(t, 8192)},
			Pred:  RangePred{Col: "date1", Lo: 8000, Hi: 9999},
		},
		Key: "shipmode", Measure: ColExpr{Name: "price"},
	}, Config{Opt: core.Options{Parallelism: 4}})
	if err != nil {
		t.Fatal(err)
	}
	ex := plan.Explain()
	if !strings.Contains(ex, "par=4") {
		t.Errorf("Explain does not annotate the degree of parallelism:\n%s", ex)
	}
}

package engine

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"monetlite/internal/core"
	"monetlite/internal/costmodel"
	"monetlite/internal/dsm"
	"monetlite/internal/memsim"
)

func itemTable(t testing.TB, n int) *dsm.Table {
	t.Helper()
	tbl, err := dsm.ItemTable(n, 42)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func partTable(t testing.TB, n int) *dsm.Table {
	t.Helper()
	tbl, err := dsm.PartTable(n, 7)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func mustPlan(t testing.TB, root Node) *PhysicalPlan {
	t.Helper()
	p, err := Plan(root, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSelectAccessPathFlipsWithSelectivity is the §3.2 planner choice:
// a point-like range on a 256K-row column goes through the CSS-tree, a
// half-relation range through the scan-select, purely by predicted
// cost.
func TestSelectAccessPathFlipsWithSelectivity(t *testing.T) {
	tbl := itemTable(t, 1<<16)
	narrow := mustPlan(t, &SelectNode{
		Input: &ScanNode{Table: tbl},
		Pred:  RangePred{Col: "order", Lo: 1000, Hi: 1016},
	})
	if got := accessPath(narrow); got != "Select[csstree]" {
		t.Errorf("narrow range lowered to %s, want Select[csstree]\n%s", got, narrow.Explain())
	}
	wide := mustPlan(t, &SelectNode{
		Input: &ScanNode{Table: tbl},
		Pred:  RangePred{Col: "order", Lo: 1000, Hi: 1000 + 1<<15},
	})
	if got := accessPath(wide); got != "Select[scan]" {
		t.Errorf("wide range lowered to %s, want Select[scan]\n%s", got, wide.Explain())
	}

	// Both access paths must select the identical rows, in storage
	// order.
	res, err := narrow.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	order, err := tbl.Column("order")
	if err != nil {
		t.Fatal(err)
	}
	var want []int64
	for i := 0; i < tbl.N; i++ {
		if v := order.Vec.Int(i); v >= 1000 && v <= 1016 {
			want = append(want, v)
		}
	}
	got, err := res.Ints("order")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("css path selected %d rows, scan %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("row %d: css %d, scan %d", i, got[i], want[i])
		}
	}
}

// TestEmptySelectionReturnsNoRows: a selection matching nothing must
// yield zero rows, never "all rows" (a nil OID list in a binding means
// the unfiltered table) — and the CSS path must not saturate
// out-of-int32-domain bounds onto real values.
func TestEmptySelectionReturnsNoRows(t *testing.T) {
	tbl := itemTable(t, 1<<14) // order domain: 1000..17383
	cases := []struct {
		name string
		pred Predicate
	}{
		{"scan range outside domain", RangePred{Col: "date1", Lo: 100, Hi: 200}},
		{"css range outside domain", RangePred{Col: "order", Lo: 500000, Hi: 500019}},
		{"css range beyond int32", RangePred{Col: "order", Lo: 1 << 33, Hi: 1<<33 + 5}},
		{"css inverted range", RangePred{Col: "order", Lo: 2000, Hi: 1000}},
		{"string outside dictionary", EqStringPred{Col: "shipmode", Value: "NOSUCH"}},
	}
	for _, tc := range cases {
		for _, sim := range []*memsim.Sim{nil, memsim.MustNew(memsim.Origin2000())} {
			plan := mustPlan(t, &SelectNode{Input: &ScanNode{Table: tbl}, Pred: tc.pred})
			res, err := plan.Run(sim)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if res.N() != 0 {
				t.Errorf("%s (sim=%v): %d rows, want 0\n%s", tc.name, sim != nil, res.N(), plan.Explain())
			}
		}
	}
}

// TestJoinPlanSwitchesWithCardinality verifies the §3.4.4 planner
// switches physical join operators as cardinality grows: tiny
// operands get the non-partitioned simple hash join, large operands a
// radix-clustered strategy with B > 0.
func TestJoinPlanSwitchesWithCardinality(t *testing.T) {
	small := mustPlan(t, &JoinNode{
		Left:    &ScanNode{Table: itemTable(t, 1<<10)},
		Right:   &ScanNode{Table: partTable(t, 2000)},
		LeftCol: "part", RightCol: "id",
	})
	big := mustPlan(t, &JoinNode{
		Left:    &ScanNode{Table: itemTable(t, 1<<18)},
		Right:   &ScanNode{Table: partTable(t, 2000)},
		LeftCol: "part", RightCol: "id",
	})
	sj, ok := small.root.(*pipelineOp).src.(*joinOp)
	if !ok {
		t.Fatalf("small join lowered under %s", small.Explain())
	}
	bj, ok := big.root.(*pipelineOp).src.(*joinOp)
	if !ok {
		t.Fatalf("big join lowered under %s", big.Explain())
	}
	if sj.plan.Strategy == bj.plan.Strategy && sj.plan.Bits == bj.plan.Bits {
		t.Errorf("planner chose %v at both 2K and 256K tuples", sj.plan)
	}
	if sj.plan.Strategy != core.SimpleHash {
		t.Errorf("small join strategy = %v, want simple hash", sj.plan.Strategy)
	}
	if bj.plan.Bits == 0 {
		t.Errorf("big join plan %v has no radix clustering", bj.plan)
	}
	if !strings.Contains(big.Explain(), "B=") {
		t.Errorf("Explain does not show radix bits:\n%s", big.Explain())
	}
}

// TestGroupingChoiceAndCostModel: the §3.2 grouping decision. Hash
// must be chosen for a cache-resident key, and the hash model must
// charge more as the group count (and thus the table footprint) grows
// — the structure the planner compares against radix grouping.
func TestGroupingChoiceAndCostModel(t *testing.T) {
	tbl := itemTable(t, 1<<18)
	few := mustPlan(t, &GroupAggNode{
		Input: &ScanNode{Table: tbl}, Key: "shipmode", Measure: ColExpr{Name: "price"},
	})
	// The grouping choice lives on the pipeline's GroupAggregate sink.
	fo := few.root.(*pipelineOp).gagg
	if fo.strat != aggHash {
		t.Errorf("7-group aggregate lowered to %v grouping, want hash:\n%s", fo.strat, few.Explain())
	}
	if fo.estGroups != 7 {
		t.Errorf("encoded shipmode key estimated %v groups, want exactly 7 (dictionary size)", fo.estGroups)
	}
	model := costmodel.New(memsim.Origin2000())
	const n = 1 << 18
	prev := -1.0
	for _, g := range []float64{7, 1 << 12, 1 << 16, 1 << 18} {
		c := model.Nanos("GroupAggregate[hash]", groupCost(n, g, &model))
		if c < prev {
			t.Errorf("hash grouping model not monotone in groups: cost(%g) = %.0f < %.0f", g, c, prev)
		}
		prev = c
	}
}

// TestExplainShowsChoices: the acceptance-level EXPLAIN contract — a
// select→join→group pipeline prints the chosen access path, join
// algorithm with radix bits, and grouping algorithm with predictions.
func TestExplainShowsChoices(t *testing.T) {
	plan := mustPlan(t, &GroupAggNode{
		Input: &JoinNode{
			Left: &SelectNode{
				Input: &ScanNode{Table: itemTable(t, 1<<16)},
				Pred:  RangePred{Col: "date1", Lo: 8500, Hi: 9499},
			},
			Right:   &ScanNode{Table: partTable(t, 2000)},
			LeftCol: "part", RightCol: "id",
		},
		Key:     "category",
		Measure: BinExpr{Op: '*', L: ColExpr{Name: "price"}, R: ColExpr{Name: "qty"}},
	})
	ex := plan.Explain()
	for _, want := range []string{
		"GroupAggregate[hash]", "Join[", "Select[scan]", "Scan item", "Scan part",
		"pred", "predicted",
	} {
		if !strings.Contains(ex, want) {
			t.Errorf("Explain missing %q:\n%s", want, ex)
		}
	}
	joinLine := ""
	for _, line := range strings.Split(ex, "\n") {
		if strings.Contains(line, "Join[") {
			joinLine = line
		}
	}
	if !strings.Contains(joinLine, "hash") && !strings.Contains(joinLine, "radix") && !strings.Contains(joinLine, "merge") {
		t.Errorf("join line does not name an algorithm: %q", joinLine)
	}
}

// TestPredictedVsSimulated compares the plan-wide cost-model
// prediction against the memory simulator's measurement of the same
// run — the paper's Figures 9–12 methodology applied to a whole query
// plan — for a pipeline over a scan-select, a CSS-tree select (feeding
// an aggregate and a projection), a join, and a scan feeding radix
// grouping over several morsels. The measured run is the second on its
// simulator: the first charges the CSS-tree build, while the planner
// prices lookups in an amortized index. The models are per-operator
// approximations, so the check is an order-of-magnitude envelope, not
// equality.
func TestPredictedVsSimulated(t *testing.T) {
	shrinkMorsels(t, 1<<16) // the radix case spans three morsels, the rest one
	price := ColExpr{Name: "price"}
	for name, root := range map[string]func() Node{
		"select-agg": func() Node {
			return &GroupAggNode{Key: "shipmode", Measure: price, Input: &SelectNode{
				Input: &ScanNode{Table: itemTable(t, 1<<16)},
				Pred:  RangePred{Col: "date1", Lo: 8500, Hi: 9499}}}
		},
		"css-agg": func() Node {
			return &GroupAggNode{Key: "shipmode", Measure: price, Input: &SelectNode{
				Input: &ScanNode{Table: itemTable(t, 1<<16)},
				Pred:  RangePred{Col: "order", Lo: 5000, Hi: 5300}}}
		},
		"css-project": func() Node {
			return &ProjectNode{Cols: []string{"order", "price", "shipmode"}, Input: &SelectNode{
				Input: &ScanNode{Table: itemTable(t, 1<<16)},
				Pred:  RangePred{Col: "order", Lo: 5000, Hi: 5300}}}
		},
		"join-agg": func() Node {
			return &GroupAggNode{Key: "category",
				Measure: BinExpr{Op: '-', L: ColExpr{Name: "retail"}, R: price},
				Input: &JoinNode{Left: &ScanNode{Table: itemTable(t, 1<<16)},
					Right: &ScanNode{Table: partTable(t, 2000)}, LeftCol: "part", RightCol: "id"}}
		},
		"scan-agg-radix": func() Node {
			return &GroupAggNode{Key: "cust", Measure: price, Input: &ScanNode{Table: itemTable(t, 3<<16)}}
		},
	} {
		plan := mustPlan(t, root())
		if name == "scan-agg-radix" && !strings.Contains(plan.Explain(), "Pipeline[Scan→Agg[radix]]") {
			t.Fatalf("%s: planned without radix grouping:\n%s", name, plan.Explain())
		}
		if strings.HasPrefix(name, "css-") && accessPath(plan) != "Select[csstree]" {
			t.Fatalf("%s: planned %s, want Select[csstree]\n%s", name, accessPath(plan), plan.Explain())
		}
		sim := memsim.MustNew(plan.Machine())
		if _, err := plan.Run(sim); err != nil {
			t.Fatal(err)
		}
		before := sim.Stats()
		if _, err := plan.Run(sim); err != nil {
			t.Fatal(err)
		}
		pred := plan.Predicted().Total(plan.Machine())
		got := sim.Stats().Sub(before).ElapsedNanos()
		if pred <= 0 || got <= 0 {
			t.Fatalf("%s: degenerate costs: predicted %.0f ns, simulated %.0f ns", name, pred, got)
		}
		ratio := pred / got
		t.Logf("%s: predicted %.2f ms, simulated %.2f ms (ratio %.2f)", name, pred/1e6, got/1e6, ratio)
		if ratio < 0.1 || ratio > 10 {
			t.Errorf("%s: predicted %.2f ms vs simulated %.2f ms: ratio %.2f outside [0.1, 10]",
				name, pred/1e6, got/1e6, ratio)
		}
	}
}

// TestSimRunMatchesNativeRun: instrumentation must not change results.
func TestSimRunMatchesNativeRun(t *testing.T) {
	tbl := itemTable(t, 1<<12)
	build := func() *PhysicalPlan {
		return mustPlan(t, &GroupAggNode{
			Input: &SelectNode{
				Input: &ScanNode{Table: itemTable(t, 1<<12)},
				Pred:  RangePred{Col: "qty", Lo: 10, Hi: 20},
			},
			Key:     "status",
			Measure: ColExpr{Name: "price"},
		})
	}
	_ = tbl
	native, err := build().Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	instr, err := build().Run(memsim.MustNew(memsim.Origin2000()))
	if err != nil {
		t.Fatal(err)
	}
	if native.N() != instr.N() {
		t.Fatalf("native %d rows, instrumented %d", native.N(), instr.N())
	}
	nk, _ := native.Strings("status")
	ik, _ := instr.Strings("status")
	ns, _ := native.Floats("sum")
	is, _ := instr.Floats("sum")
	for i := range nk {
		if nk[i] != ik[i] || ns[i] != is[i] {
			t.Errorf("row %d: native (%s, %f) != instrumented (%s, %f)", i, nk[i], ns[i], ik[i], is[i])
		}
	}
}

// TestPlanErrors: malformed logical plans fail at plan time, not run
// time.
func TestPlanErrors(t *testing.T) {
	tbl := itemTable(t, 128)
	part := partTable(t, 64)
	cases := []struct {
		name string
		node Node
	}{
		{"unknown column", &SelectNode{Input: &ScanNode{Table: tbl}, Pred: RangePred{Col: "nope", Lo: 0, Hi: 1}}},
		{"range on string", &SelectNode{Input: &ScanNode{Table: tbl}, Pred: RangePred{Col: "shipmode", Lo: 0, Hi: 1}}},
		{"string eq on int", &SelectNode{Input: &ScanNode{Table: tbl}, Pred: EqStringPred{Col: "qty", Value: "x"}}},
		{"join on float", &JoinNode{Left: &ScanNode{Table: tbl}, Right: &ScanNode{Table: part}, LeftCol: "price", RightCol: "id"}},
		{"join on string", &JoinNode{Left: &ScanNode{Table: tbl}, Right: &ScanNode{Table: part}, LeftCol: "shipmode", RightCol: "id"}},
		{"join on unknown column", &JoinNode{Left: &ScanNode{Table: tbl}, Right: &ScanNode{Table: part}, LeftCol: "nope", RightCol: "id"}},
		{"measure on string", &GroupAggNode{Input: &ScanNode{Table: tbl}, Key: "shipmode", Measure: ColExpr{Name: "comment"}}},
		{"missing measure", &GroupAggNode{Input: &ScanNode{Table: tbl}, Key: "shipmode"}},
		{"select above groupagg", &SelectNode{
			Input: &GroupAggNode{Input: &ScanNode{Table: tbl}, Key: "shipmode", Measure: ColExpr{Name: "price"}},
			Pred:  RangePred{Col: "count", Lo: 0, Hi: 10},
		}},
		{"negative limit", &LimitNode{Input: &ScanNode{Table: tbl}, N: -1}},
	}
	for _, tc := range cases {
		if _, err := Plan(tc.node, Config{}); err == nil {
			t.Errorf("%s: Plan succeeded, want error", tc.name)
		}
	}
}

// TestJoinRejectsKeysOutsideUint32: a join key that does not fit the
// uint32 tail of the paper's 8-byte BUN fails the run, natively and
// instrumented, instead of wrapping onto another key.
func TestJoinRejectsKeysOutsideUint32(t *testing.T) {
	part := partTable(t, 64)
	for _, k := range []int64{-5, 1 << 32} {
		neg, err := dsm.Decompose(dsm.Schema{Name: "neg", Cols: []dsm.ColumnDef{{Name: "k", Type: dsm.LInt}}},
			[][]any{{int64(1)}, {k}})
		if err != nil {
			t.Fatal(err)
		}
		plan := mustPlan(t, &JoinNode{Left: &ScanNode{Table: neg}, Right: &ScanNode{Table: part}, LeftCol: "k", RightCol: "id"})
		for _, sim := range []*memsim.Sim{nil, memsim.MustNew(memsim.Origin2000())} {
			if _, err := plan.Run(sim); err == nil {
				t.Errorf("join key %d (sim=%v) accepted", k, sim != nil)
			}
		}
	}
}

// TestAmbiguousColumnNeedsQualification: after a join, a column name
// present in both tables must be qualified.
func TestAmbiguousColumnNeedsQualification(t *testing.T) {
	items := itemTable(t, 256)
	// Self-join: every column is ambiguous.
	join := &JoinNode{
		Left: &ScanNode{Table: items}, Right: &ScanNode{Table: items},
		LeftCol: "order", RightCol: "order",
	}
	if _, err := Plan(&ProjectNode{Input: join, Cols: []string{"qty"}}, Config{}); err == nil {
		t.Error("unqualified ambiguous projection succeeded, want error")
	}
	if _, err := Plan(&ProjectNode{Input: join, Cols: []string{"item.qty"}}, Config{}); err != nil {
		// Self-join of the same table name cannot disambiguate either —
		// both bindings are "item" — but resolution must pick the first
		// match for a qualified name rather than erroring.
		t.Errorf("qualified projection failed: %v", err)
	}
}

// TestOrderByLimitProject exercises the tail operators over a
// table-backed intermediate.
func TestOrderByLimitProject(t *testing.T) {
	tbl := itemTable(t, 1<<10)
	plan := mustPlan(t, &LimitNode{
		Input: &OrderByNode{
			Input: &ProjectNode{Input: &ScanNode{Table: tbl}, Cols: []string{"order", "price"}},
			Col:   "price", Desc: true,
		},
		N: 5,
	})
	res, err := plan.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.N() != 5 {
		t.Fatalf("got %d rows, want 5", res.N())
	}
	prices, err := res.Floats("price")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(prices); i++ {
		if prices[i] > prices[i-1] {
			t.Errorf("prices not descending: %v", prices)
		}
	}
}

// TestHostCalibrationFixture: the engine prices plans on a calibrated
// host profile loaded through the search path — the committed fixture
// stands in for real measurement so CI never times its own hardware.
func TestHostCalibrationFixture(t *testing.T) {
	fixture, err := filepath.Abs("../calibrate/testdata/host-fixture.json")
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv(memsim.HostFileEnv, fixture)
	m, err := memsim.MachineByName(memsim.HostName)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != memsim.HostName {
		t.Fatalf("resolved %q, want %q", m.Name, memsim.HostName)
	}
	model := costmodel.New(m)
	items := itemTable(t, 1<<16)
	root := &GroupAggNode{
		Input: &SelectNode{
			Input: &ScanNode{Table: items},
			Pred:  RangePred{Col: "date1", Lo: 8500, Hi: 9499},
		},
		Key: "shipmode", Measure: ColExpr{Name: "price"},
	}
	plan, err := Plan(root, Config{Model: &model})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Machine().Name != memsim.HostName {
		t.Errorf("plan machine = %q, want %q", plan.Machine().Name, memsim.HostName)
	}
	if ms := plan.PredictedMillis(); !(ms > 0) {
		t.Errorf("PredictedMillis = %v on the host profile, want > 0", ms)
	}
	res, err := plan.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	canned, err := Plan(root, Config{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := canned.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Rel, res.Rel) {
		t.Error("host-profile plan returns different bytes than the canned-profile plan")
	}
}

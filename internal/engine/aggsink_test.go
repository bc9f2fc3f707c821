package engine

import (
	"reflect"
	"strings"
	"testing"

	"monetlite/internal/core"
	"monetlite/internal/memsim"
	"monetlite/internal/workload"
)

// TestHashAggSinkContract is the whole-plan contract of the in-pipeline
// hash aggregation: over every source the sink serves — a bare Scan, a
// scan-select, a CSS-tree select, refilters, a Join — and with morsels
// shrunk so one run leaves a dozen partials, the result must be the
// oracle's (count/min/max exact, sums within tolerance), and the same
// bytes at 1 and 4 workers, profiled or not, and under the simulator.
func TestHashAggSinkContract(t *testing.T) {
	shrinkMorsels(t, 1000)
	const n = 12000
	revenue := BinExpr{Op: '*', L: ColExpr{Name: "price"},
		R: BinExpr{Op: '-', L: ConstExpr{V: 1}, R: ColExpr{Name: "discnt"}}}
	priceQty := BinExpr{Op: '*', L: ColExpr{Name: "price"}, R: ColExpr{Name: "qty"}}
	margin := BinExpr{Op: '-', L: ColExpr{Name: "retail"}, R: ColExpr{Name: "price"}}
	cases := []struct {
		name, shape string
		root        func() Node // fresh tables on every call
	}{
		{"scan", "Pipeline[Scan→Agg]", func() Node {
			return &GroupAggNode{Input: &ScanNode{Table: itemTable(t, n)}, Key: "supp", Measure: priceQty}
		}},
		{"scan-select", "Pipeline[Select→Agg]", func() Node {
			return &GroupAggNode{Key: "shipmode", Measure: revenue, Input: &SelectNode{
				Input: &ScanNode{Table: itemTable(t, n)}, Pred: RangePred{Col: "date1", Lo: 8500, Hi: 9499}}}
		}},
		{"scan-select-refilter", "Pipeline[Select→Refilter→Agg]", func() Node {
			return &GroupAggNode{Key: "status", Measure: revenue, Input: &SelectNode{
				Input: &SelectNode{Input: &ScanNode{Table: itemTable(t, n)},
					Pred: RangePred{Col: "date1", Lo: 8200, Hi: 9600}},
				Pred: EqStringPred{Col: "shipmode", Value: workload.ShipModes[2]}}}
		}},
		{"css", "Pipeline[CSSTree→Agg]", func() Node {
			return &GroupAggNode{Key: "shipmode", Measure: ColExpr{Name: "price"}, Input: &SelectNode{
				Input: &ScanNode{Table: itemTable(t, n)}, Pred: RangePred{Col: "order", Lo: 2000, Hi: 2600}}}
		}},
		{"css-refilter", "Pipeline[CSSTree→Refilter→Agg]", func() Node {
			return &GroupAggNode{Key: "status", Measure: priceQty, Input: &SelectNode{
				Input: &SelectNode{Input: &ScanNode{Table: itemTable(t, n)},
					Pred: RangePred{Col: "order", Lo: 1500, Hi: 2700}},
				Pred: RangePred{Col: "qty", Lo: 5, Hi: 40}}}
		}},
		{"join", "Pipeline[Join→Agg]", func() Node {
			return &GroupAggNode{Key: "category", Measure: margin, Input: &JoinNode{
				Left: &ScanNode{Table: itemTable(t, n)}, Right: &ScanNode{Table: partTable(t, 2000)},
				LeftCol: "part", RightCol: "id"}}
		}},
		{"join-refilter", "Pipeline[Join→Refilter→Agg]", func() Node {
			return &GroupAggNode{Key: "supp", Measure: margin, Input: &SelectNode{
				Input: &JoinNode{Left: &ScanNode{Table: itemTable(t, n)}, Right: &ScanNode{Table: partTable(t, 2000)},
					LeftCol: "part", RightCol: "id"},
				Pred: EqStringPred{Col: "category", Value: workload.Categories[3]}}}
		}},
	}
	run := func(root Node, workers int, profiled bool, sim *memsim.Sim) *Result {
		t.Helper()
		plan, err := Plan(root, Config{Opt: core.Options{Parallelism: workers}})
		if err != nil {
			t.Fatal(err)
		}
		var res *Result
		if profiled {
			res, err = plan.RunProfiled(sim)
		} else {
			res, err = plan.Run(sim)
		}
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, tc := range cases {
		root := tc.root()
		plan, err := Plan(root, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if ex := plan.Explain(); !strings.Contains(ex, tc.shape) || !strings.Contains(ex, "GroupAggregate[hash]") {
			t.Fatalf("%s: want a hash-aggregating %s:\n%s", tc.name, tc.shape, ex)
		}
		serial := run(root, 1, false, nil)
		checkOracle(t, tc.name, root, serial.Rel)
		if serial.N() == 0 {
			t.Fatalf("%s: empty result checks nothing", tc.name)
		}
		parallel := run(root, 4, false, nil)
		if !reflect.DeepEqual(serial.Rel, parallel.Rel) {
			t.Errorf("%s: 4 workers differ from 1", tc.name)
		}
		profiled := run(root, 4, true, nil)
		if !reflect.DeepEqual(serial.Rel, profiled.Rel) {
			t.Errorf("%s: profiled run differs", tc.name)
		}
		if s := profiled.Profile.String(); !strings.Contains(s, "merge") || strings.Contains(s, "partials[") {
			t.Errorf("%s: want a merge phase and no feed partials phase:\n%s", tc.name, s)
		}
		fresh := tc.root()
		sim := memsim.MustNew(memsim.Origin2000())
		if simulated := run(fresh, 4, false, sim); !reflect.DeepEqual(serial.Rel, simulated.Rel) {
			t.Errorf("%s: simulated run differs from native over %d morsels", tc.name, core.MorselsOf(n))
		}
		if st := sim.Stats(); st.Accesses == 0 || st.CPUNanos == 0 {
			t.Errorf("%s: simulated run mirrored nothing: %+v", tc.name, st)
		}
	}
}

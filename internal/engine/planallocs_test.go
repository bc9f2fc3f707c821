package engine

import (
	"testing"

	"monetlite/internal/core"
)

// TestPlanAllocs pins what Plan() allocates for the shapes of the
// benchmark's P1 (a 20-row CSS-tree range under a four-column
// Project), P4 (a HashProbe join under hash grouping and an OrderBy,
// one morsel) and J1 (P4 over two morsels). Planning runs inside every
// timed query, so a description or formula that starts allocating
// shows here first.
func TestPlanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation measurement; skipped under the race detector")
	}
	small, large, parts := itemTable(t, 1<<18), itemTable(t, 2*core.MorselRows), partTable(t, 2000)
	j1 := func(items Node) Node {
		return &OrderByNode{Col: "sum", Desc: true, Input: &GroupAggNode{Key: "category",
			Measure: BinExpr{Op: '-', L: ColExpr{Name: "retail"}, R: ColExpr{Name: "price"}},
			Input:   &JoinNode{Left: items, Right: &ScanNode{Table: parts}, LeftCol: "part", RightCol: "id"}}}
	}
	for _, tc := range []struct {
		name string
		root Node
		want float64
	}{
		{"P1", &ProjectNode{Cols: []string{"order", "qty", "price", "shipmode"},
			Input: &SelectNode{Input: &ScanNode{Table: small}, Pred: RangePred{Col: "order", Lo: 5000, Hi: 5019}}}, 18},
		{"P4", j1(&ScanNode{Table: small}), 41},
		{"J1", j1(&ScanNode{Table: large}), 41},
	} {
		cfg := Config{Opt: core.Options{Parallelism: 2}}
		got := testing.AllocsPerRun(50, func() {
			if _, err := Plan(tc.root, cfg); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %v allocs per Plan", tc.name, got)
		if got != tc.want {
			t.Errorf("%s: Plan allocates %v objects, want %v", tc.name, got, tc.want)
		}
	}
}

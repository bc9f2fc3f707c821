package engine

import (
	"reflect"
	"strings"
	"testing"

	"monetlite/internal/core"
	"monetlite/internal/dsm"
)

// Shared fixtures for cardinality misestimates: the planner chooses
// the grouping strategy and sizes its tables from estimates, so a
// sampling-blind input shows what a wrong estimate costs and that it
// never changes an answer.

// sampleBlindTable builds a table engineered to defeat the planner's
// evenly-spaced sampling estimator. With matchSampled=false the "flag"
// column is 0 exactly at the sampled positions (every n/1024-th row)
// and 1 everywhere else, so a flag=1 selection is estimated at the
// clamp floor (n/2048 rows) while actually selecting nearly the whole
// table — ~2000× under; with matchSampled=true the polarity flips:
// the planner expects every row and only the 1024 sampled ones pass,
// n/1024× over. "g" is the group key (i mod groups), "v" the measure.
func sampleBlindTable(t testing.TB, n, groups int, matchSampled bool) *dsm.Table {
	t.Helper()
	step := (n + 1023) / 1024
	rows := make([][]any, n)
	for i := range rows {
		flag := int64(1)
		if (i%step == 0) != matchSampled {
			flag = 0
		}
		rows[i] = []any{flag, int64(i % groups), float64(i%97) + 0.5}
	}
	tbl, err := dsm.Decompose(dsm.Schema{
		Name: "skew",
		Cols: []dsm.ColumnDef{
			{Name: "flag", Type: dsm.LInt},
			{Name: "g", Type: dsm.LInt},
			{Name: "v", Type: dsm.LFloat},
		},
	}, rows)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// misestimatedAgg is a grouping query whose input cardinality the
// planner mis-estimates (direction set by the table's matchSampled
// polarity).
func misestimatedAgg(tbl *dsm.Table) Node {
	return &GroupAggNode{
		Input: &SelectNode{
			Input: &ScanNode{Table: tbl},
			Pred:  RangePred{Col: "flag", Lo: 1, Hi: 1},
		},
		Key: "g", Measure: ColExpr{Name: "v"},
	}
}

// TestMisestimatedAggregate: an aggregate whose input the planner
// misestimates — ~2000× under (hash-planned) and 256× over
// (radix-planned: it expects 2^18 all-distinct groups) — runs under
// both strategies over several morsels. Each result must be the
// oracle's and the same bytes at 1 and 4 workers, though the tables
// are presized for the wrong cardinality and must grow or sit mostly
// empty.
func TestMisestimatedAggregate(t *testing.T) {
	shrinkMorsels(t, 1<<15)
	for _, tc := range []struct {
		name         string
		n, groups    int
		matchSampled bool
		plan         string // the unforced choice
	}{
		{"under", 3 << 15, 1 << 12, false, "GroupAggregate[hash]"},
		{"over", 1 << 18, 1 << 18, true, "GroupAggregate[radix"},
	} {
		root := misestimatedAgg(sampleBlindTable(t, tc.n, tc.groups, tc.matchSampled))
		plan, err := Plan(root, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if ex := plan.Explain(); !strings.Contains(ex, tc.plan) {
			t.Fatalf("%s: planned without %s:\n%s", tc.name, tc.plan, ex)
		}
		p := plan.root.(*pipelineOp)
		est := p.srcRows * p.estOut()
		for _, force := range []string{"hash", "radix"} {
			var want *Rel
			for _, workers := range []int{1, 4} {
				plan, err := Plan(root, Config{ForceGroup: force, Opt: core.Options{Parallelism: workers}})
				if err != nil {
					t.Fatal(err)
				}
				res, err := plan.Run(nil)
				if err != nil {
					t.Fatal(err)
				}
				if want != nil {
					if !reflect.DeepEqual(want, res.Rel) {
						t.Errorf("%s/%s: 4 workers differ from 1", tc.name, force)
					}
					continue
				}
				want = res.Rel
				checkOracle(t, tc.name+"/"+force, root, res.Rel)
				counts, err := res.Ints("count")
				if err != nil {
					t.Fatal(err)
				}
				obs := 0
				for _, c := range counts {
					obs += int(c)
				}
				if r := max(est/float64(obs), float64(obs)/est); r < 200 || core.MorselsOf(tc.n) < 3 {
					t.Fatalf("%s: est=%.0f obs=%d over %d morsels: not a ≥200× multi-morsel misestimate",
						tc.name, est, obs, core.MorselsOf(tc.n))
				}
			}
		}
	}
}

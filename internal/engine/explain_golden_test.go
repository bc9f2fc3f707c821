package engine

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"monetlite/internal/core"
	"monetlite/internal/costmodel"
	"monetlite/internal/dsm"
	"monetlite/internal/memsim"
)

// goldenPlans are the fixed logical plans whose full EXPLAIN text,
// numbers included, explain.golden pins: a scan select, a CSS-tree
// select, a conjunction (base select plus refilter, under a Limit),
// a HashProbe join, a Join breaker, hash and radix grouping (over a
// select and over several morsels), a default Project, and OrderBy
// with Limit over bindings and over an aggregate.
func goldenPlans(t testing.TB) []struct {
	name string
	root Node
} {
	items, big := itemTable(t, 1<<16), itemTable(t, 3<<16)
	parts, partsLarge := partTable(t, 2000), partTable(t, 1<<19)
	revenue := BinExpr{Op: '*', L: ColExpr{Name: "price"},
		R: BinExpr{Op: '-', L: ConstExpr{V: 1}, R: ColExpr{Name: "discnt"}}}
	margin := BinExpr{Op: '-', L: ColExpr{Name: "retail"}, R: ColExpr{Name: "price"}}
	scan := func(tbl *dsm.Table) Node { return &ScanNode{Table: tbl} }
	return []struct {
		name string
		root Node
	}{
		{"scan-select-project", &ProjectNode{Cols: []string{"order", "price", "date2"},
			Input: &SelectNode{Input: scan(items), Pred: RangePred{Col: "qty", Lo: 10, Hi: 29}}}},
		{"css-select-project", &ProjectNode{Cols: []string{"order", "qty", "price", "shipmode"},
			Input: &SelectNode{Input: scan(items), Pred: RangePred{Col: "order", Lo: 5000, Hi: 5019}}}},
		{"conjunction-limit", &LimitNode{N: 20, Input: &ProjectNode{Cols: []string{"order", "date1", "price"},
			Input: &SelectNode{Pred: RangePred{Col: "date1", Lo: 8500, Hi: 9499},
				Input: &SelectNode{Input: scan(items), Pred: EqStringPred{Col: "shipmode", Value: "AIR"}}}}}},
		{"select-hash-agg", &GroupAggNode{Key: "shipmode", Measure: revenue,
			Input: &SelectNode{Input: scan(items), Pred: RangePred{Col: "date1", Lo: 8500, Hi: 9499}}}},
		{"css-hash-agg", &GroupAggNode{Key: "shipmode", Measure: ColExpr{Name: "price"},
			Input: &SelectNode{Input: scan(items), Pred: RangePred{Col: "order", Lo: 5000, Hi: 5300}}}},
		{"scan-hash-agg-morsels", &GroupAggNode{Key: "supp",
			Measure: BinExpr{Op: '*', L: ColExpr{Name: "price"}, R: ColExpr{Name: "qty"}}, Input: scan(big)}},
		{"scan-radix-agg", &GroupAggNode{Key: "cust", Measure: revenue, Input: scan(big)}},
		{"hashprobe-agg-orderby", &OrderByNode{Col: "sum", Desc: true, Input: &GroupAggNode{Key: "category",
			Measure: margin, Input: &JoinNode{Left: scan(items), Right: scan(parts), LeftCol: "part", RightCol: "id"}}}},
		{"join-breaker-agg", &GroupAggNode{Key: "category", Measure: margin,
			Input: &JoinNode{Left: scan(items), Right: scan(partsLarge), LeftCol: "cust", RightCol: "id"}}},
		{"scan-project-default", scan(parts)},
		{"select-orderby-limit", &LimitNode{N: 10, Input: &OrderByNode{Col: "price", Desc: true,
			Input: &SelectNode{Input: scan(items), Pred: RangePred{Col: "qty", Lo: 1, Hi: 5}}}}},
	}
}

// goldenModels are the two profiles the golden plans are priced on:
// the paper's Origin2000 and the frozen host calibration fixture.
func goldenModels(t *testing.T) []*costmodel.Model {
	t.Helper()
	fixture, err := filepath.Abs("../calibrate/testdata/host-fixture.json")
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv(memsim.HostFileEnv, fixture)
	host, err := memsim.MachineByName(memsim.HostName)
	if err != nil {
		t.Fatal(err)
	}
	origin, hostModel := costmodel.New(memsim.Origin2000()), costmodel.New(host)
	return []*costmodel.Model{&origin, &hostModel}
}

// TestExplainGolden pins every prediction the planner prints: the full
// EXPLAIN text of goldenPlans on both goldenModels, at two workers and
// 16K-row morsels, must equal testdata/explain.golden. Regenerate with
// UPDATE_GOLDEN=1 go test -run TestExplainGolden ./internal/engine
// only when a change of prediction is intended.
func TestExplainGolden(t *testing.T) {
	shrinkMorsels(t, 1<<14)
	var sb strings.Builder
	plans := goldenPlans(t)
	for _, model := range goldenModels(t) {
		for _, gp := range plans {
			plan, err := Plan(gp.root, Config{Model: model, Opt: core.Options{Parallelism: 2}})
			if err != nil {
				t.Fatalf("%s: %v", gp.name, err)
			}
			sb.WriteString("== " + gp.name + " @ " + model.M.Name + "\n")
			sb.WriteString(plan.Explain())
			sb.WriteString("\n")
		}
	}
	got := sb.String()
	path := filepath.Join("testdata", "explain.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < max(len(gl), len(wl)); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Errorf("explain.golden line %d:\n got  %s\n want %s", i+1, g, w)
			}
		}
	}
}

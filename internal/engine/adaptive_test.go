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

// sampleBlindTable builds a table engineered to defeat the planner's
// evenly-spaced sampling estimator. With matchSampled=false the "flag"
// column is 0 exactly at the sampled positions (every n/1024-th row)
// and 1 everywhere else, so a flag=1 selection is estimated at the
// clamp floor (~64 rows) while actually selecting nearly the whole
// table; with matchSampled=true the polarity flips and the planner
// overestimates by the same ~2000×. "g" is the group key (i mod
// groups), "v" the measure.
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
// planner mis-estimates by ~2000× (direction set by the table's
// matchSampled polarity).
func misestimatedAgg(tbl *dsm.Table) Node {
	return &GroupAggNode{
		Input: &SelectNode{
			Input: &ScanNode{Table: tbl},
			Pred:  RangePred{Col: "flag", Lo: 1, Hi: 1},
		},
		Key: "g", Measure: ColExpr{Name: "v"},
	}
}

// TestReplanTriggersOnMisestimate: with the default replan factor the
// misestimated aggregate re-plans at the breaker and EXPLAIN ANALYZE
// says so; with NoReplan (or under simulation) it never does.
func TestReplanTriggersOnMisestimate(t *testing.T) {
	// Overestimate with an all-distinct group key: the planner expects
	// ~131K rows with ~131K groups (radix territory), but only the
	// ~1K sampled rows actually pass the filter — at the breaker the
	// observed cardinality caps the group count and hash wins, so the
	// re-costed choice genuinely differs from the planned one.
	tbl := sampleBlindTable(t, 1<<17, 1<<17, true)
	root := misestimatedAgg(tbl)

	plan, err := Plan(root, Config{Opt: core.Options{Parallelism: 2}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := plan.RunProfiled(nil)
	if err != nil {
		t.Fatal(err)
	}
	out := res.Profile.String()
	if !strings.Contains(out, "replanned at") {
		t.Errorf("misestimated aggregate did not replan:\n%s", out)
	}
	if !strings.Contains(out, "est=") || !strings.Contains(out, "obs=") {
		t.Errorf("replan annotation missing est/obs:\n%s", out)
	}

	off, err := Plan(root, Config{Opt: core.Options{Parallelism: 2}, NoReplan: true})
	if err != nil {
		t.Fatal(err)
	}
	resOff, err := off.RunProfiled(nil)
	if err != nil {
		t.Fatal(err)
	}
	if s := resOff.Profile.String(); strings.Contains(s, "replanned") {
		t.Errorf("NoReplan run still replanned:\n%s", s)
	}
}

// TestReplanSkippedWhenEstimateGood: an accurately-estimated query
// must run exactly as planned — replanning is for misestimates only.
func TestReplanSkippedWhenEstimateGood(t *testing.T) {
	items := itemTable(t, 1<<16)
	root := &GroupAggNode{
		Input: &SelectNode{
			Input: &ScanNode{Table: items},
			Pred:  RangePred{Col: "date1", Lo: 8000, Hi: 9999},
		},
		Key: "shipmode", Measure: ColExpr{Name: "price"},
	}
	plan, err := Plan(root, Config{Opt: core.Options{Parallelism: 2}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := plan.RunProfiled(nil)
	if err != nil {
		t.Fatal(err)
	}
	if s := res.Profile.String(); strings.Contains(s, "replanned") {
		t.Errorf("well-estimated query replanned:\n%s", s)
	}
}

// TestAdaptiveByteIdentical is the correctness contract of mid-query
// re-optimization: adaptive runs return byte-identical results to
// NoReplan runs for every worker count, in each replan class — a
// single-morsel feed, where any strategy flip is legal; hash-planned
// aggregates, which aggregate inside the pipeline and never replan;
// and a multi-morsel sort feed, which keeps its plan.
func TestAdaptiveByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		name         string
		n, groups    int
		matchSampled bool
		force        string
		plan         string // the planned grouping
		replans      bool
	}{
		// Overestimate, all-distinct key: the replanner flips the
		// planned radix grouping to hash on a single-morsel feed.
		{"single-morsel-flip", 1 << 17, 1 << 17, true, "", "GroupAggregate[radix", true},
		// Underestimates of hash-planned aggregates, on one morsel
		// and on several: nothing left to replan.
		{"hash-single-morsel", 1 << 17, 1 << 14, false, "", "GroupAggregate[hash]", false},
		{"hash-multi-morsel", 3 << 17, 1 << 12, false, "", "GroupAggregate[hash]", false},
		// A multi-morsel sort feed keeps its plan.
		{"sort-multi-morsel", 3 << 17, 1 << 12, false, "sort", "GroupAggregate[sort]", false},
	} {
		tbl := sampleBlindTable(t, tc.n, tc.groups, tc.matchSampled)
		root := misestimatedAgg(tbl)
		for _, workers := range []int{1, 4} {
			base := Config{Opt: core.Options{Parallelism: workers}, ForceGroup: tc.force}

			cfg := base
			cfg.NoReplan = true
			fixed, err := Plan(root, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if ex := fixed.Explain(); !strings.Contains(ex, tc.plan) {
				t.Fatalf("%s: planned without %s:\n%s", tc.name, tc.plan, ex)
			}
			want, err := fixed.Run(nil)
			if err != nil {
				t.Fatal(err)
			}

			adaptive, err := Plan(root, base)
			if err != nil {
				t.Fatal(err)
			}
			got, err := adaptive.RunProfiled(nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want.Rel, got.Rel) {
				t.Errorf("%s workers=%d: adaptive result differs from fixed plan", tc.name, workers)
			}
			if s := got.Profile.String(); strings.Contains(s, "replanned at") != tc.replans {
				t.Errorf("%s workers=%d: replanned=%v, want %v:\n%s",
					tc.name, workers, !tc.replans, tc.replans, s)
			}
		}
	}
}

// TestHashPlannedMisestimateDoesNotReplan: a hash-planned aggregate
// whose input the planner underestimates ~2000× — far past the replan
// factor — already aggregated inside the pipeline by the time the
// cardinality is known, so it returns the same bytes with replanning
// on and off and its profile never reads "replanned at".
func TestHashPlannedMisestimateDoesNotReplan(t *testing.T) {
	tbl := sampleBlindTable(t, 3<<17, 1<<12, false)
	root := misestimatedAgg(tbl)
	var results [2]*Result
	est := 0
	for i, noReplan := range []bool{false, true} {
		plan, err := Plan(root, Config{Opt: core.Options{Parallelism: 2}, NoReplan: noReplan})
		if err != nil {
			t.Fatal(err)
		}
		if ex := plan.Explain(); !strings.Contains(ex, "GroupAggregate[hash]") {
			t.Fatalf("planned without hash grouping:\n%s", ex)
		}
		est = plan.root.(*pipelineOp).gagg.estRows
		res, err := plan.RunProfiled(nil)
		if err != nil {
			t.Fatal(err)
		}
		if s := res.Profile.String(); strings.Contains(s, "replanned at") {
			t.Errorf("NoReplan=%v: hash-planned aggregate replanned:\n%s", noReplan, s)
		}
		results[i] = res
	}
	counts, err := results[0].Ints("count")
	if err != nil {
		t.Fatal(err)
	}
	obs := 0
	for _, c := range counts {
		obs += int(c)
	}
	if float64(obs) < float64(est)*defaultReplanFactor || core.MorselsOf(obs) < 2 {
		t.Fatalf("est=%d obs=%d: not a multi-morsel misestimate beyond the replan factor", est, obs)
	}
	if !reflect.DeepEqual(results[0].Rel, results[1].Rel) {
		t.Errorf("replan on and off return different bytes")
	}
}

// TestReplanFactorValidation: factors ≤ 1 other than the 0 default are
// rejected — a factor of 1 would replan on every run.
func TestReplanFactorValidation(t *testing.T) {
	tbl := sampleBlindTable(t, 1<<12, 8, false)
	if _, err := Plan(misestimatedAgg(tbl), Config{ReplanFactor: 0.5}); err == nil {
		t.Error("Plan accepted ReplanFactor 0.5")
	}
	if _, err := Plan(misestimatedAgg(tbl), Config{ReplanFactor: 8}); err != nil {
		t.Errorf("Plan rejected ReplanFactor 8: %v", err)
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

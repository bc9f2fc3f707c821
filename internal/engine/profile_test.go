package engine

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"monetlite/internal/core"
	"monetlite/internal/costmodel"
)

// profQueries are the plan shapes the profiling invariants are checked
// on: a fusable select→aggregate chain (pipeline + grouping phases), a
// join (build/probe breaker), and a project→order→limit chain.
func profQueries(t testing.TB) map[string]Node {
	items := itemTable(t, 1<<17)
	parts := partTable(t, 500)
	measure := BinExpr{Op: '*', L: ColExpr{Name: "price"},
		R: BinExpr{Op: '-', L: ConstExpr{V: 1}, R: ColExpr{Name: "discnt"}}}
	return map[string]Node{
		"select-agg": &GroupAggNode{
			Input: &SelectNode{
				Input: &ScanNode{Table: items},
				Pred:  RangePred{Col: "date1", Lo: 8500, Hi: 9499},
			},
			Key: "shipmode", Measure: measure,
		},
		"join-agg": &GroupAggNode{
			Input: &JoinNode{
				Left: &SelectNode{
					Input: &ScanNode{Table: items},
					Pred:  RangePred{Col: "date1", Lo: 8500, Hi: 9499},
				},
				Right:   &ScanNode{Table: parts},
				LeftCol: "part", RightCol: "id",
			},
			Key: "shipmode", Measure: ColExpr{Name: "price"},
		},
		"proj-order-limit": &LimitNode{
			Input: &OrderByNode{
				Input: &ProjectNode{
					Input: &SelectNode{
						Input: &SelectNode{
							Input: &ScanNode{Table: items},
							Pred:  RangePred{Col: "date1", Lo: 8000, Hi: 9999},
						},
						Pred: EqStringPred{Col: "shipmode", Value: "AIR"},
					},
					Cols: []string{"order", "price"},
				},
				Col: "price", Desc: true,
			},
			N: 100,
		},
	}
}

// TestProfiledRunByteIdentical is the observation-only contract:
// RunProfiled must return byte-identical results to Run for every plan
// shape and worker count.
func TestProfiledRunByteIdentical(t *testing.T) {
	for name, root := range profQueries(t) {
		for _, workers := range []int{1, 4} {
			plan, err := Plan(root, Config{Opt: core.Options{Parallelism: workers}})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want, err := plan.Run(nil)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got, err := plan.RunProfiled(nil)
			if err != nil {
				t.Fatalf("%s profiled: %v", name, err)
			}
			if !reflect.DeepEqual(want.Rel, got.Rel) {
				t.Errorf("%s workers=%d: profiled result differs from unprofiled", name, workers)
			}
			if got.Profile == nil {
				t.Fatalf("%s: RunProfiled returned nil Profile", name)
			}
			if want.Profile != nil {
				t.Errorf("%s: Run attached a Profile", name)
			}
		}
	}
}

// TestProfileTreeConsistency pins the structural invariants of the
// stats tree: a root, positive total time, the query's real output
// rows at the root, non-negative traffic everywhere, and InRows
// consistent with the non-phase children feeding each operator.
func TestProfileTreeConsistency(t *testing.T) {
	for name, root := range profQueries(t) {
		plan, err := Plan(root, Config{Opt: core.Options{Parallelism: 4}})
		if err != nil {
			t.Fatal(err)
		}
		res, err := plan.RunProfiled(nil)
		if err != nil {
			t.Fatal(err)
		}
		p := res.Profile
		if p.Root == nil {
			t.Fatalf("%s: profile has no root", name)
		}
		if p.TotalMS <= 0 {
			t.Errorf("%s: TotalMS = %v, want > 0", name, p.TotalMS)
		}
		if p.Workers != 4 {
			t.Errorf("%s: Workers = %d, want 4", name, p.Workers)
		}
		var walk func(n *OpStats)
		walk = func(n *OpStats) {
			if n.BytesRead < 0 || n.BytesWritten < 0 {
				t.Errorf("%s: %s has negative traffic %d/%d", name, n.Op, n.BytesRead, n.BytesWritten)
			}
			if n.InRows < 0 || n.OutRows < 0 {
				t.Errorf("%s: %s has negative rows %d/%d", name, n.Op, n.InRows, n.OutRows)
			}
			if n.SelfMS < 0 || n.ActualMS < 0 {
				t.Errorf("%s: %s has negative time", name, n.Op)
			}
			var kidOut int64
			realKids := 0
			for _, k := range n.Kids {
				walk(k)
				if !k.Phase {
					kidOut += k.OutRows
					realKids++
				}
			}
			// Every operator with real children consumes exactly what
			// they produced.
			if realKids > 0 && !n.Phase && n.InRows != kidOut {
				t.Errorf("%s: %s InRows=%d but children produced %d", name, n.Op, n.InRows, kidOut)
			}
		}
		walk(p.Root)
	}
}

// TestProfileCountsAllocations: every query shape allocates (chunk
// buffers, aggregation feeds, join indexes), and the profile's root
// operator — whose counters include its children — must report it.
func TestProfileCountsAllocations(t *testing.T) {
	for name, root := range profQueries(t) {
		res, err := mustPlan(t, root).RunProfiled(nil)
		if err != nil {
			t.Fatal(err)
		}
		if r := res.Profile.Root; r.AllocBytes <= 0 || r.Allocs <= 0 {
			t.Errorf("%s: root %s reports %d bytes in %d allocations, want both > 0",
				name, r.Op, r.AllocBytes, r.Allocs)
		}
	}
}

// TestProfileAnnotatedExplainAndResiduals: the rendered tree carries
// the actual=/rows=/traffic= annotations and predicted-vs-actual
// ratios, and the residual accumulator receives every costed operator
// kind.
func TestProfileAnnotatedExplainAndResiduals(t *testing.T) {
	root := profQueries(t)["select-agg"]
	plan, err := Plan(root, Config{Opt: core.Options{Parallelism: 2}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := plan.RunProfiled(nil)
	if err != nil {
		t.Fatal(err)
	}
	out := res.Profile.String()
	for _, want := range []string{"profile for", "actual=", "rows=", "traffic=", "pred "} {
		if !strings.Contains(out, want) {
			t.Errorf("EXPLAIN ANALYZE output missing %q:\n%s", want, out)
		}
	}
	acc := costmodel.NewResiduals(plan.Machine().Name)
	res.Profile.Residuals(acc)
	if len(acc.Kinds()) == 0 {
		t.Fatalf("no residual kinds accumulated from:\n%s", out)
	}
	for _, k := range acc.Kinds() {
		if k.Count <= 0 || k.ActualMS <= 0 || k.PredictedMS <= 0 {
			t.Errorf("degenerate residual for %q: %+v", k.Kind, k)
		}
	}
	if _, err := res.Profile.JSON(); err != nil {
		t.Fatalf("Profile.JSON: %v", err)
	}
}

// TestPredRatioUsesOwnTime: an operator's prediction prices its own
// work, so PredRatio and the residual feed compare it with the
// operator's time less its child operators' — for an OrderBy above a
// pipeline, the sort alone. The OrderBy predicts microseconds; judged
// on its inclusive time it read as 10^5× off.
func TestPredRatioUsesOwnTime(t *testing.T) {
	root := &OrderByNode{Col: "sum", Desc: true, Input: profQueries(t)["join-agg"]}
	plan, err := Plan(root, Config{Opt: core.Options{Parallelism: 2}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := plan.RunProfiled(nil)
	if err != nil {
		t.Fatal(err)
	}
	ob := res.Profile.Root
	if ob.Op != "OrderBy" || ob.PredictedMS <= 0 {
		t.Fatalf("want a costed OrderBy at the root:\n%s", res.Profile)
	}
	var below float64
	for _, k := range ob.Kids {
		if !k.Phase {
			below += k.ActualMS
		}
	}
	if below <= 0 {
		t.Fatalf("OrderBy has no timed child operator:\n%s", res.Profile)
	}
	own := max(ob.ActualMS-below, 0)
	if want := own / ob.PredictedMS; own > 0 && math.Abs(ob.PredRatio-want) > 1e-9*want {
		t.Errorf("OrderBy PredRatio = %g, want own %.4f ms / pred %.4f ms = %g", ob.PredRatio, own, ob.PredictedMS, want)
	}
	if inclusive := ob.ActualMS / ob.PredictedMS; ob.PredRatio >= inclusive {
		t.Errorf("OrderBy PredRatio %g not below its inclusive ratio %g", ob.PredRatio, inclusive)
	}
	acc := costmodel.NewResiduals(plan.Machine().Name)
	res.Profile.Residuals(acc)
	for _, k := range acc.Kinds() {
		if k.Kind == "OrderBy" && math.Abs(k.ActualMS-own) > 1e-9*own {
			t.Errorf("OrderBy residual observed %.4f ms, want its own %.4f ms", k.ActualMS, own)
		}
	}
}

// TestProfileChromeTraceValid: the trace export is well-formed JSON in
// the Chrome trace event format, with metadata naming every worker
// thread and per-worker morsel spans whose tids stay in range.
func TestProfileChromeTraceValid(t *testing.T) {
	root := profQueries(t)["select-agg"]
	plan, err := Plan(root, Config{Opt: core.Options{Parallelism: 4}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := plan.RunProfiled(nil)
	if err != nil {
		t.Fatal(err)
	}
	events := res.Profile.TraceEvents(3, "q1")
	raw, err := EncodeChromeTrace(events)
	if err != nil {
		t.Fatal(err)
	}
	var back struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			PID  int     `json:"pid"`
			TID  int     `json:"tid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if back.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", back.DisplayTimeUnit)
	}
	meta, ops, morsels := 0, 0, 0
	for _, e := range back.TraceEvents {
		switch e.Ph {
		case "M":
			meta++
		case "X":
			if e.PID != 3 {
				t.Errorf("event %q has pid %d, want 3", e.Name, e.PID)
			}
			if e.Dur < 0 || e.TS < 0 {
				t.Errorf("event %q has negative time", e.Name)
			}
			if e.TID == res.Profile.Workers {
				ops++
			} else if e.TID < res.Profile.Workers {
				morsels++
			} else {
				t.Errorf("event %q on tid %d, beyond the operator track", e.Name, e.TID)
			}
		default:
			t.Errorf("unexpected phase %q", e.Ph)
		}
	}
	// process_name + one thread_name per worker + the operator track.
	if wantMeta := 1 + res.Profile.Workers + 1; meta != wantMeta {
		t.Errorf("metadata events = %d, want %d", meta, wantMeta)
	}
	if ops == 0 {
		t.Error("no operator events in trace")
	}
	if morsels == 0 {
		t.Error("no per-worker morsel spans in trace")
	}
}

// TestKindOf pins the label → calibration-kind normalization.
func TestKindOf(t *testing.T) {
	cases := map[string]string{
		"Select[scan]":                   "Select[scan]",
		"GroupAggregate[radix bits=10]":  "GroupAggregate[radix]",
		"Join[phash (B=8, P=2)]":         "Join[phash]",
		"Join[shash]":                    "Join[shash]",
		"OrderBy":                        "OrderBy",
		"Pipeline[Select→Agg[radix]]":    "Pipeline[Select→Agg[radix]]",
		"GroupAggregate[hash ~7 groups]": "GroupAggregate[hash]",
	}
	for in, want := range cases {
		if got := costmodel.KindOf(in); got != want {
			t.Errorf("KindOf(%q) = %q, want %q", in, got, want)
		}
	}
}

// fakeOp is a no-op physOp for the hook-overhead gates.
type fakeOp struct{ frag fragment }

func (f *fakeOp) exec(*execCtx) (*fragment, error) { return &f.frag, nil }
func (f *fakeOp) label() string                    { return "fake" }
func (f *fakeOp) detail() string                   { return "" }
func (f *fakeOp) kids() []physOp                   { return nil }
func (f *fakeOp) predicted() costmodel.Breakdown   { return costmodel.Breakdown{} }

// TestProfileHooksDisabledZeroAlloc pins the zero-cost-when-disabled
// contract at the hook level: with profiling off, ctx.exec and the
// span-aware morsel loops must allocate nothing beyond the wrapped
// work itself.
func TestProfileHooksDisabledZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation measurement; skipped under the race detector")
	}
	ctx := &execCtx{opt: core.Serial()}
	op := &fakeOp{}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := ctx.exec(op); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("disabled ctx.exec allocates %v/op, want 0", n)
	}
	sink := 0
	morselBody := func(m, lo, hi int) { sink += hi - lo }
	// core.ForMorsels allocates its morsel-bounds closure with or
	// without profiling; the hook must add nothing on top of it.
	base := testing.AllocsPerRun(100, func() {
		core.ForMorsels(1, 1024, morselBody)
	})
	if n := testing.AllocsPerRun(100, func() {
		ctx.forMorsels(1024, morselBody)
	}); n != base {
		t.Errorf("disabled forMorsels allocates %v/op, pre-profiling path %v/op", n, base)
	}
	spanBody := func(w, i int) { sink += i }
	if n := testing.AllocsPerRun(100, func() {
		core.ForEachSpan(1, 4, nil, spanBody)
	}); n != 0 {
		t.Errorf("nil-recorder ForEachSpan allocates %v/op, want 0", n)
	}
	_ = sink
}

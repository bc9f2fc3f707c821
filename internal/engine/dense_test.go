package engine

import (
	"math"
	"reflect"
	"testing"

	"monetlite/internal/core"
	"monetlite/internal/dsm"
	"monetlite/internal/memsim"
	"monetlite/internal/workload"
)

// denseMachine is the Origin2000 with a 64 KB L2: an array sink then
// takes key ranges of at most 1024 slots, so test-sized tables reach
// both dense strategies and the budget's edge.
func denseMachine() memsim.Machine {
	m := memsim.Origin2000()
	m.Name = "origin2k-64K"
	m.L2.Size = 64 << 10
	return m
}

// TestDenseGroupingMatchesTable: on keys whose range the column knows,
// the array sink must be bitwise the agg.Table hash sink (both merge
// per-morsel partials in morsel order) and the radix-range sink bitwise
// the agg.Table radix sink (both fold every group in input order), at
// 1, 2 and 4 workers over a dozen morsels, natively and under the
// simulator, and the oracle's answer — on negative keys, one key, an
// empty input, a range one slot above the array budget, a wide dense
// range, and int64 extremes whose hi − lo overflows (no dense path:
// agg.Table), none of which may panic.
func TestDenseGroupingMatchesTable(t *testing.T) {
	shrinkMorsels(t, 1000)
	const n = 12000
	cfg := Config{Machine: denseMachine()}
	extremes := []int64{math.MinInt64, math.MaxInt64, 0, -1, 1}
	for _, tc := range []struct {
		name  string
		key   func(rng *workload.RNG, i int) int64
		empty bool
		want  aggStrategy // 0 (hash): any strategy but array
	}{
		{"negative", func(rng *workload.RNG, _ int) int64 { return -3000 + int64(rng.Intn(600)) }, false, aggArray},
		{"single", func(*workload.RNG, int) int64 { return -7 }, false, aggArray},
		{"empty", func(rng *workload.RNG, _ int) int64 { return int64(rng.Intn(100)) }, true, aggArray},
		{"above-budget", func(rng *workload.RNG, i int) int64 { return int64(i % 1025) }, false, aggHash},
		{"wide", func(rng *workload.RNG, _ int) int64 { return int64(rng.Intn(1<<15)) - 1<<14 }, false, aggRange},
		{"extremes", func(rng *workload.RNG, _ int) int64 { return extremes[rng.Intn(len(extremes))] }, false, aggHash},
	} {
		build := func() *GroupAggNode { // fresh tables: a column binds to the first simulator it meets
			var in Node = &ScanNode{Table: keyedTable(t, n, tc.key)}
			if tc.empty {
				in = &SelectNode{Input: in, Pred: RangePred{Col: "k", Lo: 1000, Hi: 2000}}
			}
			return &GroupAggNode{Input: in, Key: "k", Measure: BinExpr{Op: '*', L: ColExpr{Name: "v"}, R: ColExpr{Name: "w"}}}
		}
		root := build()
		plan, err := Plan(root, cfg)
		if err != nil {
			t.Fatal(err)
		}
		strat := plan.root.(*pipelineOp).gagg.strat
		switch {
		case tc.want != aggHash && strat != tc.want:
			t.Fatalf("%s: planned %v grouping, want %v:\n%s", tc.name, strat, tc.want, plan.Explain())
		case tc.want == aggHash && strat == aggArray:
			t.Fatalf("%s: planned array grouping beyond the array budget:\n%s", tc.name, plan.Explain())
		}
		force := map[aggStrategy]string{aggArray: "hash", aggRange: "radix"}[strat]
		var first *Rel
		for _, workers := range []int{1, 2, 4} {
			c := cfg
			c.Opt = core.Options{Parallelism: workers}
			got := runPlan(t, root, c, nil)
			if first == nil {
				first = got
				checkOracle(t, tc.name, root, got)
				if tc.empty != (got.N == 0) {
					t.Fatalf("%s: %d groups", tc.name, got.N)
				}
			} else if !reflect.DeepEqual(first, got) {
				t.Errorf("%s: %d workers differ from 1", tc.name, workers)
			}
			if force != "" {
				c.ForceGroup = force
				if table := runPlan(t, root, c, nil); !reflect.DeepEqual(got, table) {
					t.Errorf("%s at %d workers: %v grouping differs from agg.Table %s grouping", tc.name, workers, strat, force)
				}
			}
		}
		sim := memsim.MustNew(cfg.machine())
		if simulated := runPlan(t, build(), cfg, sim); !reflect.DeepEqual(first, simulated) {
			t.Errorf("%s: simulated run differs from native", tc.name)
		}
		t.Logf("%s: %v grouping, %d groups", tc.name, strat, first.N)
	}
}

// runPlan plans root under cfg and runs it, natively or under sim.
func runPlan(t *testing.T, root Node, cfg Config, sim *memsim.Sim) *Rel {
	t.Helper()
	plan, err := Plan(root, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := plan.Run(sim)
	if err != nil {
		t.Fatal(err)
	}
	return res.Rel
}

// TestGroupEstimateCappedByRange: a key spanning 2^18 values whose
// 1024-row sample holds no repeated key used to be estimated at the
// relation's 2^19 rows; the column's range caps it at 2^18, and the
// result sort's key bits are read from the range.
func TestGroupEstimateCappedByRange(t *testing.T) {
	const n, span = 1 << 19, 1 << 18
	// Row i holds (i/512 + (i mod 512)·1024) mod 2^18: the sample rows
	// (every 512th) hold keys 0–1023, the relation all of [0, 2^18).
	tbl := keyedTable(t, n, func(_ *workload.RNG, i int) int64 { return int64((i>>9 + (i&511)<<10) % span) })
	c, err := tbl.Column("k")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int64]bool{}
	for _, p := range samplePositions(n) {
		if k := c.Vec.Int(p); seen[k] {
			t.Fatalf("sample repeats key %d: the case needs a collision-free sample", k)
		} else {
			seen[k] = true
		}
	}
	if g := estimateGroups(c); g > span {
		t.Errorf("estimateGroups = %.0f, want ≤ %d (the key's range)", g, span)
	}
	if b := keyRangeBits(c, n); b != 18 {
		t.Errorf("keyRangeBits = %d, want 18 from the range", b)
	}
	unranged := &dsm.Column{Def: c.Def, Vec: c.Vec}
	if g := estimateGroups(unranged); g != n {
		t.Errorf("without a range estimateGroups = %.0f, want the relation's %d rows", g, n)
	}
}

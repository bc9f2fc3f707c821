package engine

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"monetlite/internal/core"
	"monetlite/internal/dsm"
	"monetlite/internal/memsim"
	"monetlite/internal/workload"
)

// Property suite for the radix-partitioned grouping strategy: every
// strategy, worker count and execution mode must produce byte-identical
// results, and the planner must flip to radix exactly when the
// estimated group table outgrows the caches.

// keyedTable builds an n-row table with an integer key column drawn by
// gen and a float measure.
func keyedTable(t *testing.T, n int, gen func(rng *workload.RNG, i int) int64) *dsm.Table {
	t.Helper()
	schema := dsm.Schema{Name: "keyed", Cols: []dsm.ColumnDef{
		{Name: "k", Type: dsm.LInt},
		{Name: "v", Type: dsm.LFloat},
		{Name: "w", Type: dsm.LFloat},
	}}
	rng := workload.NewRNG(31)
	rows := make([][]any, n)
	for i := range rows {
		rows[i] = []any{gen(rng, i), float64(rng.Intn(1<<20)) / 3, float64(rng.Intn(100)) / 7}
	}
	tbl, err := dsm.Decompose(schema, rows)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// groupPlanFor lowers a GroupAggregate over the table and returns its
// pipeline's sink.
func groupPlanFor(t *testing.T, tbl *dsm.Table, cfg Config) (*PhysicalPlan, *groupAggOp) {
	t.Helper()
	root := &GroupAggNode{Input: &ScanNode{Table: tbl}, Key: "k", Measure: ColExpr{Name: "v"}}
	p, err := Plan(root, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p, p.root.(*pipelineOp).gagg
}

// TestGroupStrategyFlipsAtCacheFit: on a key without a dense range the
// planner keeps §3.2 hash grouping while the ~48 B/group table is
// cache-resident and switches to GroupAggregate[radix bits=B] once the
// estimated group cardinality crosses the cache-fit threshold (here: a
// near-unique key whose estimate saturates to the relation size). The
// same 32 groups as the dense keys 0–31 index an array instead.
func TestGroupStrategyFlipsAtCacheFit(t *testing.T) {
	sparse := keyedTable(t, 1<<15, func(rng *workload.RNG, i int) int64 { return int64(rng.Intn(32)) * 2654435761 })
	_, so := groupPlanFor(t, sparse, Config{})
	if so.strat != aggHash {
		t.Errorf("32-group sparse key lowered to %v grouping, want hash", so.strat)
	}
	few := keyedTable(t, 1<<15, func(rng *workload.RNG, i int) int64 { return int64(rng.Intn(32)) })
	_, fo := groupPlanFor(t, few, Config{})
	if fo.strat != aggArray || fo.slots != 32 {
		t.Errorf("32-group dense key lowered to %v grouping over %d slots, want array over 32", fo.strat, fo.slots)
	}

	many := keyedTable(t, 1<<18, func(_ *workload.RNG, i int) int64 { return int64(i * 2654435761) })
	plan, mo := groupPlanFor(t, many, Config{})
	if mo.strat != aggRadix {
		t.Fatalf("near-unique key lowered to %v grouping, want radix:\n%s", mo.strat, plan.Explain())
	}
	if mo.radixBits < 1 || mo.radixPass < 1 {
		t.Errorf("radix plan has bits=%d passes=%d", mo.radixBits, mo.radixPass)
	}
	// The chosen B must actually restore the cache-fit regime: one
	// partition's table within a quarter of L1.
	m := memsim.Origin2000()
	if per := mo.estGroups * 48 / float64(int(1)<<mo.radixBits); per > float64(m.L1.Size)/4 {
		t.Errorf("partition table ~%.0f B exceeds the L1/4 budget", per)
	}
	ex := plan.Explain()
	want := fmt.Sprintf("GroupAggregate[radix bits=%d]", mo.radixBits)
	if !strings.Contains(ex, want) {
		t.Errorf("Explain missing %q:\n%s", want, ex)
	}
	if !strings.Contains(ex, "saves~") || !strings.Contains(ex, "ms vs hash") {
		t.Errorf("radix Explain does not report predicted savings:\n%s", ex)
	}
	if mo.savedMS <= 0 {
		t.Errorf("radix chosen with non-positive predicted saving %.2f ms", mo.savedMS)
	}
}

// relsEquivalent compares two result relations: keys, counts, min and
// max bitwise; float sums within a relative 1e-9 — grouping strategies
// that decompose the input differently (hash's morsel partials vs
// radix's input-order folds) associate the same per-group sums
// differently, so only within-strategy runs are bitwise comparable.
func relsEquivalent(t *testing.T, label string, a, b *Rel) {
	t.Helper()
	if a.N != b.N || len(a.Cols) != len(b.Cols) {
		t.Errorf("%s: shape (%d rows, %d cols) vs (%d rows, %d cols)", label, a.N, len(a.Cols), b.N, len(b.Cols))
		return
	}
	for c := range a.Cols {
		ac, bc := &a.Cols[c], &b.Cols[c]
		if ac.Name != bc.Name || ac.Kind != bc.Kind {
			t.Errorf("%s: column %d is (%s, %v) vs (%s, %v)", label, c, ac.Name, ac.Kind, bc.Name, bc.Kind)
			return
		}
		if ac.Kind != KFloat || ac.Name != "sum" {
			if !reflect.DeepEqual(a.Cols[c], b.Cols[c]) {
				t.Errorf("%s: column %q differs", label, ac.Name)
			}
			continue
		}
		for i := range ac.Floats {
			if d := ac.Floats[i] - bc.Floats[i]; d > 1e-9*(1+absF(ac.Floats[i])) || -d > 1e-9*(1+absF(ac.Floats[i])) {
				t.Errorf("%s: sum[%d] = %v vs %v", label, i, ac.Floats[i], bc.Floats[i])
				return
			}
		}
	}
}

func absF(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// TestGroupStrategiesAgree is the whole-query cross-check on skewed,
// duplicated, negative-key, near-unique, tiny and empty inputs across
// multiple morsels (run under -race in CI). Within one strategy, every
// worker count must be byte-identical — the determinism contract. Across strategies, keys/counts/min/max
// must be bitwise equal and sums equal up to association order.
func TestGroupStrategiesAgree(t *testing.T) {
	shrinkMorsels(t, 512)
	inputs := map[string]struct {
		n   int
		gen func(rng *workload.RNG, i int) int64
	}{
		"empty":    {0, func(*workload.RNG, int) int64 { return 0 }},
		"tiny":     {3, func(rng *workload.RNG, i int) int64 { return int64(rng.Intn(2)) }},
		"skewed":   {5000, func(rng *workload.RNG, i int) int64 { return int64(rng.Intn(rng.Intn(64) + 1)) }},
		"dups":     {5000, func(rng *workload.RNG, i int) int64 { return int64(rng.Intn(111)) }},
		"negative": {5000, func(rng *workload.RNG, i int) int64 { return int64(rng.Intn(4001)) - 2000 }},
		"unique":   {5000, func(_ *workload.RNG, i int) int64 { return int64(i)*2654435761 - 1<<40 }},
	}
	measure := BinExpr{Op: '*', L: ColExpr{Name: "v"}, R: BinExpr{Op: '-', L: ConstExpr{V: 1}, R: ColExpr{Name: "w"}}}
	for name, in := range inputs {
		tbl := keyedTable(t, in.n, in.gen)
		root := func() Node {
			return &GroupAggNode{Input: &ScanNode{Table: tbl}, Key: "k", Measure: measure}
		}
		var crossBase *Rel
		for _, strat := range []string{"hash", "radix"} {
			var want *Rel
			for _, workers := range []int{1, 4} {
				p, err := Plan(root(), Config{ForceGroup: strat, Opt: core.Options{Parallelism: workers}})
				if err != nil {
					t.Fatal(err)
				}
				res, err := p.Run(nil)
				if err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want = res.Rel
					continue
				}
				if !reflect.DeepEqual(want, res.Rel) {
					t.Errorf("%s: %s grouping (workers=%d) not byte-identical to its serial run", name, strat, workers)
				}
			}
			if crossBase == nil {
				crossBase = want
				continue
			}
			relsEquivalent(t, fmt.Sprintf("%s: %s vs hash", name, strat), crossBase, want)
		}
	}
}

// TestRadixGroupingInstrumented: forced-radix instrumented runs
// cluster each morsel's run through agg.ClusterSim and still match
// native results exactly.
func TestRadixGroupingInstrumented(t *testing.T) {
	tbl := keyedTable(t, 4000, func(rng *workload.RNG, i int) int64 { return int64(rng.Intn(1200)) })
	root := &GroupAggNode{Input: &ScanNode{Table: tbl}, Key: "k", Measure: ColExpr{Name: "v"}}
	p, err := Plan(root, Config{ForceGroup: "radix"})
	if err != nil {
		t.Fatal(err)
	}
	native, err := p.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	instr, err := p.Run(memsim.MustNew(memsim.Origin2000()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(native.Rel, instr.Rel) {
		t.Error("instrumented radix grouping differs from native")
	}
}

// TestForceGroupValidation: unknown strategies (sort grouping is gone)
// fail at Plan time.
func TestForceGroupValidation(t *testing.T) {
	tbl := keyedTable(t, 64, func(_ *workload.RNG, i int) int64 { return int64(i) })
	root := &GroupAggNode{Input: &ScanNode{Table: tbl}, Key: "k", Measure: ColExpr{Name: "v"}}
	for _, bad := range []string{"bogus", "sort"} {
		if _, err := Plan(root, Config{ForceGroup: bad}); err == nil {
			t.Errorf("ForceGroup %q accepted", bad)
		}
	}
	// Forcing radix on a low-cardinality key floors the bit count at 1
	// so the partitioning machinery actually runs.
	small := keyedTable(t, 256, func(rng *workload.RNG, i int) int64 { return int64(rng.Intn(4)) })
	_, op := groupPlanFor(t, small, Config{ForceGroup: "radix"})
	if op.strat != aggRadix || op.radixBits < 1 {
		t.Errorf("forced radix lowered to %v bits=%d", op.strat, op.radixBits)
	}
}

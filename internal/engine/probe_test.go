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

// TestSmallInnerLowersToProbeStage pins §3.4.4's rule on the
// benchmark's frozen profile (1 MiB L2): J1's shape, a 2000-row inner
// (≈31 KB with its table), lowers to a HashProbe stage in the item
// pipeline with no Join breaker; J2's shape, an inner whose table
// outgrows L2, keeps its Join breaker.
func TestSmallInnerLowersToProbeStage(t *testing.T) {
	m, err := memsim.LoadMachineFile("../../cmd/mlbench/testdata/machine.json")
	if err != nil {
		t.Fatal(err)
	}
	items := itemTable(t, 1<<12)
	shape := func(parts int, col string) string {
		plan, err := Plan(&OrderByNode{Col: "sum", Desc: true, Input: &GroupAggNode{Key: "category",
			Measure: BinExpr{Op: '-', L: ColExpr{Name: "retail"}, R: ColExpr{Name: "price"}},
			Input: &JoinNode{Left: &ScanNode{Table: items}, Right: &ScanNode{Table: partTable(t, parts)},
				LeftCol: col, RightCol: "id"}}}, Config{Machine: m})
		if err != nil {
			t.Fatal(err)
		}
		return plan.Explain()
	}
	if ex := shape(2000, "part"); !strings.Contains(ex, "Pipeline[Scan→HashProbe→Agg]") ||
		!strings.Contains(ex, "HashProbe item.part = part.id  build~2000 rows") || strings.Contains(ex, "Join[") {
		t.Errorf("J1's shape did not lower to a HashProbe stage:\n%s", ex)
	}
	if ex := shape(1<<17, "cust"); !strings.Contains(ex, "Pipeline[Join→Agg]") ||
		!strings.Contains(ex, "Join[") || strings.Contains(ex, "HashProbe") {
		t.Errorf("J2's shape (a 2^17-row inner, %.1f MB with its table) lost its Join:\n%s",
			probeFootprint(1<<17)/(1<<20), ex)
	}
	if probeFootprint(2000) > float64(m.L2.Size) || probeFootprint(1<<17) <= float64(m.L2.Size) {
		t.Errorf("footprints %.0f and %.0f straddle L2 = %d the wrong way",
			probeFootprint(2000), probeFootprint(1<<17), m.L2.Size)
	}
}

// TestProbeStageAllocsFlat: the HashProbe stage and the sink above it
// allocate nothing per vector, so on a warm plan a J1-shaped run
// allocates no more over 2^18 outer rows than over 2^16.
func TestProbeStageAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	parts := partTable(t, 2000)
	allocs := func(n int) float64 {
		plan := mustPlan(t, &OrderByNode{Col: "sum", Desc: true, Input: &GroupAggNode{Key: "category",
			Measure: BinExpr{Op: '-', L: ColExpr{Name: "retail"}, R: ColExpr{Name: "price"}},
			Input: &JoinNode{Left: &ScanNode{Table: itemTable(t, n)}, Right: &ScanNode{Table: parts},
				LeftCol: "part", RightCol: "id"}}})
		if !strings.Contains(plan.Explain(), "HashProbe") {
			t.Fatalf("planned without a HashProbe stage:\n%s", plan.Explain())
		}
		run := func() {
			if _, err := plan.Run(nil); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm
		return testing.AllocsPerRun(5, run)
	}
	small, large := allocs(1<<16), allocs(1<<18)
	t.Logf("allocs per run: %.0f at 2^16 outer rows, %.0f at 2^18", small, large)
	if large > small {
		t.Errorf("a J1-shaped run allocates %.0f objects at 2^18 outer rows, %.0f at 2^16: the probe path allocates per vector",
			large, small)
	}
}

// probeFuzzTables builds the fuzzer's outer and inner tables: outer
// keys over [0, domain+domain/4] (so some match nothing), inner keys
// over [0, domain) with dup copies of each, and a hot key 0 repeated
// hot times on the inner side, so one vector's matches — past 256 of
// them, even one outer row's — overflow it.
func probeFuzzTables(t *testing.T, seed uint64, nl, nr, domain, dup, hot int) (outer, inner *dsm.Table) {
	rng := workload.NewRNG(seed)
	tags := []string{"x", "y", "z"}
	lrows := make([][]any, nl)
	for i := range lrows {
		lrows[i] = []any{int64(rng.Intn(domain + domain/4 + 1)), int64(rng.Intn(100)),
			float64(rng.Intn(1 << 16)), tags[rng.Intn(len(tags))]}
	}
	rrows := make([][]any, 0, nr+hot)
	for i := 0; i < nr; i++ {
		rrows = append(rrows, []any{int64((i / dup) % domain), int64(rng.Intn(13)),
			float64(rng.Intn(97)) / 4, tags[rng.Intn(len(tags))]})
	}
	for i := 0; i < hot; i++ {
		rrows = append(rrows, []any{int64(0), int64(rng.Intn(13)), float64(i % 7), "y"})
	}
	var err error
	outer, err = dsm.Decompose(dsm.Schema{Name: "o", Cols: []dsm.ColumnDef{
		{Name: "k", Type: dsm.LInt}, {Name: "a", Type: dsm.LInt},
		{Name: "v", Type: dsm.LFloat}, {Name: "s", Type: dsm.LString},
	}}, lrows)
	if err != nil {
		t.Fatal(err)
	}
	inner, err = dsm.Decompose(dsm.Schema{Name: "i", Cols: []dsm.ColumnDef{
		{Name: "id", Type: dsm.LInt}, {Name: "g", Type: dsm.LInt},
		{Name: "w", Type: dsm.LFloat}, {Name: "label", Type: dsm.LString},
	}}, rrows)
	if err != nil {
		t.Fatal(err)
	}
	return outer, inner
}

// FuzzProbeStage: random outer and inner tables — duplicate inner
// keys (a hot key whose matches overflow a vector), outer keys that
// match nothing, empty sides — under filters on either side, refilters
// above the probe, and a Project, GroupAggregate, OrderBy or Limit
// above the join. Every plan must lower to a HashProbe stage, equal
// the row-at-a-time oracle, and return the same bytes at 1, 2 and 4
// workers and under the simulator. The Sun LX profile's 64 KB cache
// keeps vectors at 256 rows, and morsels shrink to 300 rows, so
// sub-vector flushes and morsel concatenation both engage.
func FuzzProbeStage(f *testing.F) {
	f.Add(uint64(1), uint16(700), uint16(300), uint8(40), uint8(2), uint8(0), uint8(0))
	f.Add(uint64(2), uint16(900), uint16(200), uint8(60), uint8(1), uint8(200), uint8(1))
	f.Add(uint64(3), uint16(0), uint16(50), uint8(10), uint8(1), uint8(0), uint8(3+8))
	f.Add(uint64(4), uint16(400), uint16(0), uint8(10), uint8(1), uint8(0), uint8(5+16))
	f.Add(uint64(5), uint16(1200), uint16(500), uint8(90), uint8(3), uint8(120), uint8(2+8+16+32))
	f.Add(uint64(6), uint16(800), uint16(400), uint8(30), uint8(4), uint8(255), uint8(4+64))
	f.Add(uint64(7), uint16(600), uint16(300), uint8(25), uint8(2), uint8(90), uint8(5+16+32+64))
	f.Fuzz(func(t *testing.T, seed uint64, nl, nr uint16, domain, dup, hot, shape uint8) {
		shrinkMorsels(t, 300)
		outer, inner := probeFuzzTables(t, seed, int(nl)%1500, int(nr)%600,
			16+int(domain), 1+int(dup)%4, 2*int(hot))
		var left, right Node = &ScanNode{Table: outer}, &ScanNode{Table: inner}
		if shape&8 != 0 {
			left = &SelectNode{Input: left, Pred: RangePred{Col: "a", Lo: 10, Hi: 80}}
		}
		if shape&16 != 0 {
			right = &SelectNode{Input: right, Pred: RangePred{Col: "g", Lo: 2, Hi: 9}}
		}
		var join Node = &JoinNode{Left: left, Right: right, LeftCol: "k", RightCol: "id"}
		if shape&32 != 0 {
			join = &SelectNode{Input: join, Pred: EqStringPred{Col: "label", Value: "y"}}
		}
		if shape&64 != 0 {
			join = &SelectNode{Input: join, Pred: EqStringPred{Col: "s", Value: "x"}}
		}
		var root Node
		switch shape % 8 {
		case 0:
			root = &ProjectNode{Input: join, Cols: []string{"k", "a", "id", "g", "label", "v"}}
		case 1:
			root = &GroupAggNode{Input: join, Key: "label",
				Measure: BinExpr{Op: '*', L: ColExpr{Name: "v"}, R: ColExpr{Name: "w"}}}
		case 2:
			root = &GroupAggNode{Input: join, Key: "k",
				Measure: BinExpr{Op: '-', L: ColExpr{Name: "w"}, R: ColExpr{Name: "v"}}}
		case 3:
			root = &LimitNode{N: 1 + int(seed%700), Input: &ProjectNode{Input: join, Cols: []string{"k", "w"}}}
		case 4:
			root = &LimitNode{N: 1 + int(seed%50), Input: &OrderByNode{Col: "w", Desc: true,
				Input: &ProjectNode{Input: join, Cols: []string{"a", "w", "label"}}}}
		case 5:
			root = &OrderByNode{Col: "a", Input: join}
		default:
			root = join
		}
		var want *Rel
		for _, workers := range []int{1, 2, 4, 0} {
			cfg := Config{Machine: memsim.SunLX(), Opt: core.Options{Parallelism: max(workers, 1)}}
			plan, err := Plan(root, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(plan.Explain(), "HashProbe") {
				t.Fatalf("planned without a HashProbe stage:\n%s", plan.Explain())
			}
			var sim *memsim.Sim
			if workers == 0 {
				sim = memsim.MustNew(plan.Machine())
			}
			res, err := plan.Run(sim)
			if err != nil {
				t.Fatalf("workers=%d sim=%v: %v\n%s", workers, sim != nil, err, plan.Explain())
			}
			if want == nil {
				want = res.Rel
				checkOracle(t, "probe stage", root, res.Rel)
				continue
			}
			if !reflect.DeepEqual(want, res.Rel) {
				t.Fatalf("workers=%d sim=%v: result differs from the serial run\n%s", workers, sim != nil, plan.Explain())
			}
		}
	})
}

// TestJoinAndProbePhasesProfiled: EXPLAIN ANALYZE accounts for a
// join's time and traffic. A Join breaker (the Sun LX profile's 64 KB
// cache against a 6000-row inner) shows its join[materialize],
// join[<plan>] and join[remap] phases with their rows, and the phases
// carry exactly the traffic the operator was charged before it had
// phases. A HashProbe stage shows its build phase and a stage row with
// outer rows in, matches out and its inner rows.
func TestJoinAndProbePhasesProfiled(t *testing.T) {
	items, parts := itemTable(t, 1<<14), partTable(t, 6000)
	root := &GroupAggNode{Key: "category", Measure: ColExpr{Name: "retail"},
		Input: &JoinNode{Left: &ScanNode{Table: items}, Right: &ScanNode{Table: parts},
			LeftCol: "part", RightCol: "id"}}
	// find returns the first node named op, or starting with op when
	// op ends in "[".
	find := func(p *Profile, op string) *OpStats {
		var hit *OpStats
		var walk func(n *OpStats)
		walk = func(n *OpStats) {
			if hit == nil && (n.Op == op || strings.HasSuffix(op, "[") && strings.HasPrefix(n.Op, op)) {
				hit = n
			}
			for _, k := range n.Kids {
				walk(k)
			}
		}
		walk(p.Root)
		if hit == nil {
			t.Fatalf("profile has no %s node:\n%s", op, p)
		}
		return hit
	}
	for _, cfg := range []Config{{Machine: memsim.SunLX()}, {}} {
		plan, err := Plan(root, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := plan.RunProfiled(nil)
		if err != nil {
			t.Fatal(err)
		}
		p := res.Profile
		if cfg.Machine.Name == "" {
			st, build := find(p, "HashProbe"), find(p, "HashProbe[build]")
			if st.InRows != int64(items.N) || st.OutRows != int64(items.N) || !strings.Contains(st.Detail, "build=6000 rows") ||
				st.BytesRead == 0 || build.OutRows != 6000 {
				t.Errorf("HashProbe rows/traffic wrong:\n%s", p)
			}
			continue
		}
		join := find(p, "Join[")
		op := plan.root.(*pipelineOp).src.(*joinOp)
		mat, idx, remap := find(p, "join[materialize]"), find(p, fmt.Sprintf("join[%s]", op.plan)), find(p, "join[remap]")
		in, out := int64(items.N+parts.N), idx.OutRows
		if mat.InRows != in || idx.InRows != in || out != int64(items.N) || remap.OutRows != out {
			t.Errorf("join phase rows: materialize %d→%d, join %d→%d, remap %d→%d:\n%s",
				mat.InRows, mat.OutRows, idx.InRows, idx.OutRows, remap.InRows, remap.OutRows, p)
		}
		read, written := inclTraffic(join)
		if read != in*8 || written != in*8+out*8+out*4*2 {
			t.Errorf("join traffic %d/%d, want %d/%d", read, written, in*8, in*8+out*8+out*4*2)
		}
	}
}

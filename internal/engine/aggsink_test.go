package engine

import (
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"

	"monetlite/internal/core"
	"monetlite/internal/memsim"
	"monetlite/internal/workload"
)

// aggSinkCase is one GroupAggregate over a source shape the
// in-pipeline sinks serve; shape is the pipeline label up to its
// aggregate stage ("Pipeline[Scan→Agg"). cfg is the Config the case
// plans under (the zero value: the default profile, cost-chosen
// grouping).
type aggSinkCase struct {
	name, shape string
	root        func() Node // fresh tables on every call
	cfg         Config
}

// aggSinkCases are the sink contracts' plans over n item rows: a bare
// Scan, a scan-select, a CSS-tree select, refilters, and a join lowered
// both as a HashProbe stage and as a Join breaker (on breakerMachine,
// whose tiny caches would pick radix grouping, so those cases force
// hash; the radix contract forces radix on every case).
func aggSinkCases(t *testing.T, n int) []aggSinkCase {
	revenue := BinExpr{Op: '*', L: ColExpr{Name: "price"},
		R: BinExpr{Op: '-', L: ConstExpr{V: 1}, R: ColExpr{Name: "discnt"}}}
	priceQty := BinExpr{Op: '*', L: ColExpr{Name: "price"}, R: ColExpr{Name: "qty"}}
	margin := BinExpr{Op: '-', L: ColExpr{Name: "retail"}, R: ColExpr{Name: "price"}}
	cases := []aggSinkCase{
		{"scan", "Pipeline[Scan→Agg", func() Node {
			return &GroupAggNode{Input: &ScanNode{Table: itemTable(t, n)}, Key: "supp", Measure: priceQty}
		}, Config{}},
		{"scan-select", "Pipeline[Select→Agg", func() Node {
			return &GroupAggNode{Key: "shipmode", Measure: revenue, Input: &SelectNode{
				Input: &ScanNode{Table: itemTable(t, n)}, Pred: RangePred{Col: "date1", Lo: 8500, Hi: 9499}}}
		}, Config{}},
		{"scan-select-refilter", "Pipeline[Select→Refilter→Agg", func() Node {
			return &GroupAggNode{Key: "status", Measure: revenue, Input: &SelectNode{
				Input: &SelectNode{Input: &ScanNode{Table: itemTable(t, n)},
					Pred: RangePred{Col: "date1", Lo: 8200, Hi: 9600}},
				Pred: EqStringPred{Col: "shipmode", Value: workload.ShipModes[2]}}}
		}, Config{}},
		{"css", "Pipeline[CSSTree→Agg", func() Node {
			return &GroupAggNode{Key: "shipmode", Measure: ColExpr{Name: "price"}, Input: &SelectNode{
				Input: &ScanNode{Table: itemTable(t, n)}, Pred: RangePred{Col: "order", Lo: 2000, Hi: 2600}}}
		}, Config{}},
		{"css-refilter", "Pipeline[CSSTree→Refilter→Agg", func() Node {
			return &GroupAggNode{Key: "status", Measure: priceQty, Input: &SelectNode{
				Input: &SelectNode{Input: &ScanNode{Table: itemTable(t, n)},
					Pred: RangePred{Col: "order", Lo: 1500, Hi: 2700}},
				Pred: RangePred{Col: "qty", Lo: 5, Hi: 40}}}
		}, Config{}},
	}
	for _, jl := range joinLowerings {
		cfg := jl.cfg
		if jl.name == "breaker" {
			cfg.ForceGroup = "hash"
		}
		cases = append(cases, aggSinkCase{"join (" + jl.name + ")", "Pipeline[" + jl.source + "→Agg", func() Node {
			return &GroupAggNode{Key: "category", Measure: margin, Input: &JoinNode{
				Left: &ScanNode{Table: itemTable(t, n)}, Right: &ScanNode{Table: partTable(t, 2000)},
				LeftCol: "part", RightCol: "id"}}
		}, cfg}, aggSinkCase{"join-refilter (" + jl.name + ")", "Pipeline[" + jl.source + "→Refilter→Agg", func() Node {
			return &GroupAggNode{Key: "supp", Measure: margin, Input: &SelectNode{
				Input: &JoinNode{Left: &ScanNode{Table: itemTable(t, n)}, Right: &ScanNode{Table: partTable(t, 2000)},
					LeftCol: "part", RightCol: "id"},
				Pred: EqStringPred{Col: "category", Value: workload.Categories[3]}}}
		}, cfg})
	}
	return cases
}

// runAggPlan plans root under cfg at the given worker count and runs
// it, profiled or not, natively or under sim.
func runAggPlan(t *testing.T, root Node, cfg Config, workers int, profiled bool, sim *memsim.Sim) *Result {
	t.Helper()
	cfg.Opt = core.Options{Parallelism: workers}
	plan, err := Plan(root, cfg)
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

// TestHashAggSinkContract is the whole-plan contract of the in-pipeline
// hash aggregation: over every source the sink serves — a bare Scan, a
// scan-select, a CSS-tree select, refilters, a HashProbe, a Join — and with morsels
// shrunk so one run leaves a dozen partials, the result must be the
// oracle's (count/min/max exact, sums within tolerance), and the same
// bytes at 1 and 4 workers, profiled or not, and under the simulator.
// Every case's key has a dense range, so hash grouping is forced.
func TestHashAggSinkContract(t *testing.T) {
	foldSinkContract(t, "hash")
}

// TestArrayAggSinkContract is the same contract for the array sink the
// planner chooses on those dense keys: agg.Dense's per-morsel partials,
// merged in morsel order.
func TestArrayAggSinkContract(t *testing.T) {
	foldSinkContract(t, "")
}

// foldSinkContract checks the contract of the folding sink that
// ForceGroup force selects ("": the cost-based choice, the array sink;
// the breaker cases keep the hash grouping their case forces).
func foldSinkContract(t *testing.T, force string) {
	shrinkMorsels(t, 1000)
	const n = 12000
	for _, tc := range aggSinkCases(t, n) {
		if force != "" {
			tc.cfg.ForceGroup = force
		}
		want := "GroupAggregate[array]"
		if tc.cfg.ForceGroup != "" {
			want = "GroupAggregate[" + tc.cfg.ForceGroup + "]"
		}
		run := func(root Node, workers int, profiled bool, sim *memsim.Sim) *Result {
			t.Helper()
			return runAggPlan(t, root, tc.cfg, workers, profiled, sim)
		}
		root := tc.root()
		plan, err := Plan(root, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if ex := plan.Explain(); !strings.Contains(ex, tc.shape+"]") || !strings.Contains(ex, want) {
			t.Fatalf("%s: want a %s-aggregating %s:\n%s", tc.name, want, tc.shape, ex)
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
		if s := profiled.Profile.String(); !strings.Contains(s, "merge") || !strings.Contains(s, "result[order]") ||
			strings.Contains(s, "partials[") {
			t.Errorf("%s: want merge and result[order] phases and no feed partials phase:\n%s", tc.name, s)
		}
		fresh := tc.root()
		sim := memsim.MustNew(tc.cfg.machine())
		if simulated := run(fresh, 4, false, sim); !reflect.DeepEqual(serial.Rel, simulated.Rel) {
			t.Errorf("%s: simulated run differs from native over %d morsels", tc.name, core.MorselsOf(n))
		}
		if st := sim.Stats(); st.Accesses == 0 || st.CPUNanos == 0 {
			t.Errorf("%s: simulated run mirrored nothing: %+v", tc.name, st)
		}
	}
}

// TestRadixAggSinkContract is the whole-plan contract of the
// in-pipeline radix aggregation: over every source the sink serves,
// plus a high-cardinality key, with morsels shrunk so one run clusters
// a dozen morsel runs, the result must equal refGroups over the
// concatenated feed — the rows a Project sink over the same pipeline
// emits, in its order, with the measure evaluated row by row — bit for
// bit, and be the same bytes at 1 and 4 workers, profiled or not, and
// under the simulator.
func TestRadixAggSinkContract(t *testing.T) {
	shrinkMorsels(t, 1000)
	const n = 12000
	cases := append(aggSinkCases(t, n), aggSinkCase{"scan-highcard", "Pipeline[Scan→Agg", func() Node {
		return &GroupAggNode{Input: &ScanNode{Table: itemTable(t, n)}, Key: "cust",
			Measure: BinExpr{Op: '/', L: ColExpr{Name: "price"}, R: ColExpr{Name: "qty"}}}
	}, Config{}})
	for _, tc := range cases {
		radix := tc.cfg
		radix.ForceGroup = "radix"
		root := tc.root()
		plan, err := Plan(root, radix)
		if err != nil {
			t.Fatal(err)
		}
		if ex := plan.Explain(); !strings.Contains(ex, tc.shape+"[radix]]") {
			t.Fatalf("%s: want a radix-aggregating %s[radix]]:\n%s", tc.name, tc.shape, ex)
		}
		serial := runAggPlan(t, root, radix, 1, false, nil)
		if want := radixFeedResult(t, root.(*GroupAggNode), plan.root.(*pipelineOp).gagg, tc.cfg); !reflect.DeepEqual(want, serial.Rel) {
			t.Errorf("%s: radix sink differs from refGroups over the feed", tc.name)
		}
		if serial.N() == 0 {
			t.Fatalf("%s: empty result checks nothing", tc.name)
		}
		if !reflect.DeepEqual(serial.Rel, runAggPlan(t, root, radix, 4, false, nil).Rel) {
			t.Errorf("%s: 4 workers differ from 1", tc.name)
		}
		profiled := runAggPlan(t, root, radix, 4, true, nil)
		if !reflect.DeepEqual(serial.Rel, profiled.Rel) {
			t.Errorf("%s: profiled run differs", tc.name)
		}
		if s := profiled.Profile.String(); !strings.Contains(s, "aggregate[partitions]") ||
			!strings.Contains(s, "result[order]") || strings.Contains(s, "merge") {
			t.Errorf("%s: want partition fold and result[order] phases and no merge:\n%s", tc.name, s)
		}
		sim := memsim.MustNew(radix.machine())
		if simulated := runAggPlan(t, tc.root(), radix, 4, false, sim); !reflect.DeepEqual(serial.Rel, simulated.Rel) {
			t.Errorf("%s: simulated run differs from native over %d morsels", tc.name, core.MorselsOf(n))
		}
		if st := sim.Stats(); st.Accesses == 0 || st.CPUNanos == 0 {
			t.Errorf("%s: simulated run mirrored nothing: %+v", tc.name, st)
		}
	}
}

// radixFeedResult is the reference for a radix sink g planned over
// root under cfg: a Project of the key and the measure's operands over
// the same input, planned under cfg too, emits the sink's feed in its
// order; the measure is evaluated
// row by row (scalarEval), and refGroups groups the concatenated feed
// on g's bits. g.build sorts and decodes the groups.
func radixFeedResult(t *testing.T, root *GroupAggNode, g *groupAggOp, cfg Config) *Rel {
	t.Helper()
	cols := []string{root.Key}
	for _, op := range g.operands {
		cols = append(cols, op.name)
	}
	feed := runAggPlan(t, &ProjectNode{Input: root.Input, Cols: cols}, cfg, 1, false, nil).Rel
	keys := feed.Cols[0].Ints
	if g.keyCol.Enc != nil {
		keys = make([]int64, feed.N)
		for i, s := range feed.Cols[0].Strs {
			code, ok := g.keyCol.Enc.Code(s)
			if !ok {
				t.Fatalf("key %q not in the dictionary", s)
			}
			keys[i] = code
		}
	}
	ops := make([][]float64, len(g.operands))
	for c := range ops {
		rc := &feed.Cols[1+c]
		ops[c] = rc.Floats
		if rc.Kind == KInt {
			ops[c] = make([]float64, feed.N)
			for i, v := range rc.Ints {
				ops[c][i] = float64(v)
			}
		}
	}
	vals := make([]float64, feed.N)
	for i := range vals {
		vals[i] = scalarEval(g.measure, ops, i)
	}
	return g.build(&execCtx{}, refGroups(keys, vals, g.radixBits)).rel
}

// FuzzRadixPartitionFold: clustering random morsel splits of random
// pairs with core.RadixClusterKV and folding the partitions through
// foldRuns must equal refGroups over the whole input, bit for bit and
// in the same (partition, first-seen) order — with boundary keys,
// heavy duplicates, NaN/±0/±Inf values, empty runs, bits 1–8, every
// valid pass count, presized tables that must grow or sit mostly
// empty, and 1 to 4 workers.
func FuzzRadixPartitionFold(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 1, 3, 0, 2, 0, 0, 1, 4}, uint8(0), uint8(0), uint64(1), uint8(0))
	f.Add([]byte{0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 1, 2, 0, 0, 5}, uint8(5), uint8(2), uint64(7), uint8(3))
	many := make([]byte, 3*400)
	for i := 0; i < 400; i++ {
		many[3*i], many[3*i+1], many[3*i+2] = byte(i>>8)+1, byte(i%37), byte(i*7)
	}
	f.Add(many, uint8(7), uint8(1), uint64(3), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, bitsB, passesB uint8, seed uint64, par uint8) {
		keys, vals := fuzzPairs(data)
		bits := int(bitsB%8) + 1
		passes := int(passesB)%bits + 1
		rng := rand.New(rand.NewPCG(seed, 0))
		var runs []kvRun
		for lo := 0; lo < len(keys); {
			if rng.IntN(4) == 0 {
				runs = append(runs, kvRun{}) // a morsel no row survived
			}
			hi := lo + 1 + rng.IntN(len(keys)-lo)
			k, v, offs, err := core.RadixClusterKV(keys[lo:hi], vals[lo:hi], bits, passes, core.Serial())
			if err != nil {
				t.Fatal(err)
			}
			runs = append(runs, kvRun{keys: k, vals: v, offs: offs})
			lo = hi
		}
		ctx := &execCtx{opt: core.Options{Parallelism: int(par%4) + 1}}
		ctx.arenas = make([]*pipeArena, ctx.opt.Workers())
		got := foldRuns(ctx, runs, &groupAggOp{strat: aggRadix, radixBits: bits, estGroups: float64(rng.IntN(2*len(keys) + 1))})
		if want := refGroups(keys, vals, bits); !sameGroups(got, want) {
			t.Fatalf("bits=%d passes=%d, %d runs: fold %+v != reference %+v", bits, passes, len(runs), got, want)
		}
	})
}

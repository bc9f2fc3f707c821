package monetlite

import (
	"bytes"
	"testing"
)

// The facade tests exercise the public API end to end, as a
// downstream user would.

func TestPublicJoinPipeline(t *testing.T) {
	l, r := JoinInputs(10000, 1)
	m := Origin2000()
	plan := NewPlan(Auto, 10000, m)
	sim, err := NewSim(m)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Execute(sim, l, r, plan, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 10000 {
		t.Fatalf("join returned %d pairs", res.Len())
	}
	if sim.Stats().Accesses == 0 {
		t.Error("no simulated activity")
	}
}

func TestPublicClusterAndJoins(t *testing.T) {
	l, r := JoinInputs(4096, 2)
	cl, err := RadixCluster(nil, l, 6, 2, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cl.Clusters() != 64 {
		t.Errorf("clusters = %d", cl.Clusters())
	}
	for _, run := range []func() (*JoinIndex, error){
		func() (*JoinIndex, error) { return PartitionedHashJoin(nil, l, r, 6, 2, nil, Options{}) },
		func() (*JoinIndex, error) { return RadixJoin(nil, l, r, 9, 2, nil, Serial()) },
		func() (*JoinIndex, error) { return SimpleHashJoin(nil, l, r, nil) },
		func() (*JoinIndex, error) { return SortMergeJoin(nil, l, r) },
		func() (*JoinIndex, error) { return SimpleHashJoin(nil, l, r, MultHash) },
	} {
		res, err := run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != 4096 {
			t.Errorf("result size %d", res.Len())
		}
	}
}

func TestPublicScanAndModel(t *testing.T) {
	m := Origin2000()
	r, err := StrideScan(m, 8, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if r.Millis() <= 0 {
		t.Error("no scan time")
	}
	model := NewCostModel(m)
	if model.ScanNanos(10000, 8) <= 0 {
		t.Error("no model prediction")
	}
	if model.PhashTotal(10, 1<<20).Millis(m) <= 0 {
		t.Error("no phash prediction")
	}
}

func TestPublicMachines(t *testing.T) {
	if len(Machines()) != 4 {
		t.Errorf("expected 4 Figure-3 machines, got %d", len(Machines()))
	}
	if _, err := MachineByName("origin2k"); err != nil {
		t.Error(err)
	}
	if _, err := MachineByName("cray"); err == nil {
		t.Error("unknown machine resolved")
	}
	if Modern().ClockMHz <= Origin2000().ClockMHz {
		t.Error("modern profile not faster than 1998")
	}
}

func TestPublicDSM(t *testing.T) {
	tab, err := ItemTable(1000, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Query(tab).WhereString("shipmode", "AIR").GroupBy("status", Col("price")).Run()
	if err != nil {
		t.Fatal(err)
	}
	counts, err := res.Ints("count")
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, c := range counts {
		n += c
	}
	air := 0
	for _, it := range Items(1000, 3) {
		if it.ShipMode == "AIR" {
			air++
		}
	}
	if air == 0 || int(n) != air {
		t.Errorf("aggregate covers %d rows, want %d", n, air)
	}
	enc, err := EncodeStrings([]string{"x", "y", "x"})
	if err != nil {
		t.Fatal(err)
	}
	if enc.Codes.Len() != 3 {
		t.Error("encode failed")
	}
}

func TestPublicFigureRunners(t *testing.T) {
	var buf bytes.Buffer
	cfg := FigureConfig{Out: &buf, CardOverride: 1 << 12, Seed: 5}
	if err := Fig1(cfg); err != nil {
		t.Fatal(err)
	}
	if err := Fig13(cfg); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("figure runners produced no output")
	}
}

func TestPublicStrategyPlanner(t *testing.T) {
	m := Origin2000()
	if got := len(Strategies()); got != 9 {
		t.Errorf("%d strategies", got)
	}
	p := PlanAuto(8<<20, m)
	if p.Strategy == SimpleHash || p.Strategy == SortMerge {
		t.Errorf("auto picked baseline %v at 8M", p.Strategy)
	}
	if OptimalPasses(20, m) != 4 {
		t.Errorf("OptimalPasses(20) = %d", OptimalPasses(20, m))
	}
	if NewPlan(PhashL1, 8<<20, m).Bits != 12 {
		t.Errorf("phash L1 bits = %d", NewPlan(PhashL1, 8<<20, m).Bits)
	}
}

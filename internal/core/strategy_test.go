package core

import (
	"strings"
	"testing"

	"monetlite/internal/memsim"
	"monetlite/internal/workload"
)

func TestStrategyBitsOrigin(t *testing.T) {
	m := memsim.Origin2000()
	// §3.4.4 formulas at C = 8M:
	//   phash L2 : 8M·12/4MB   = 24  → B = 5 (ceil log2 24 = 5)
	//   phash TLB: 8M·12/1MB   = 96  → B = 7
	//   phash L1 : 8M·12/32KB  = 3072→ B = 12
	//   radix 8  : 8M/8        = 1M  → B = 20
	const c = 8 << 20
	cases := map[Strategy]int{
		PhashL2:  5,
		PhashTLB: 7,
		PhashL1:  12,
		Radix8:   20,
		RadixMin: 21,
		Phash256: 15,
	}
	for s, want := range cases {
		if got := StrategyBits(s, c, m); got != want {
			t.Errorf("%v bits at 8M = %d, want %d", s, got, want)
		}
	}
	// Tiny relations need no clustering at all.
	if got := StrategyBits(PhashL2, 100, m); got != 0 {
		t.Errorf("phash L2 bits for 100 tuples = %d, want 0", got)
	}
	if StrategyBits(SimpleHash, c, m) != 0 || StrategyBits(SortMerge, c, m) != 0 {
		t.Error("baseline strategies must use 0 bits")
	}
	if StrategyBits(PhashL1, 0, m) != 0 {
		t.Error("zero cardinality must give 0 bits")
	}
}

func TestStrategyOrderingMonotone(t *testing.T) {
	// Finer target granularity ⇒ at least as many bits.
	m := memsim.Origin2000()
	for _, c := range []int{1 << 10, 1 << 16, 1 << 20, 1 << 23} {
		l2 := StrategyBits(PhashL2, c, m)
		tlb := StrategyBits(PhashTLB, c, m)
		l1 := StrategyBits(PhashL1, c, m)
		r8 := StrategyBits(Radix8, c, m)
		if !(l2 <= tlb && tlb <= l1 && l1 <= r8) {
			t.Errorf("C=%d: bits not monotone: L2=%d TLB=%d L1=%d radix8=%d", c, l2, tlb, l1, r8)
		}
	}
}

func TestNewPlanPasses(t *testing.T) {
	m := memsim.Origin2000()
	p := NewPlan(Radix8, 8<<20, m) // B=20 → 4 passes on 6-bit TLB
	if p.Bits != 20 || p.Passes != 4 {
		t.Errorf("radix8 plan at 8M = %+v", p)
	}
	p = NewPlan(PhashL2, 8<<20, m) // B=5 → 1 pass
	if p.Passes != 1 {
		t.Errorf("phash L2 plan = %+v", p)
	}
	p = NewPlan(SimpleHash, 8<<20, m)
	if p.Bits != 0 || p.Passes != 1 {
		t.Errorf("simple hash plan = %+v", p)
	}
}

func TestPlanString(t *testing.T) {
	m := memsim.Origin2000()
	if s := NewPlan(SimpleHash, 1000, m).String(); s != "simple hash" {
		t.Errorf("plan string = %q", s)
	}
	if s := NewPlan(Radix8, 8<<20, m).String(); !strings.Contains(s, "B=20") {
		t.Errorf("plan string = %q", s)
	}
	for _, s := range append(Strategies(), Auto) {
		if strings.HasPrefix(s.String(), "strategy(") {
			t.Errorf("missing name for %d", int(s))
		}
	}
	if Strategy(99).String() != "strategy(99)" {
		t.Error("unknown strategy string")
	}
}

func TestExecuteAllStrategies(t *testing.T) {
	m := memsim.Origin2000()
	l, r := workload.JoinInputs(4096, 9)
	want := refJoin(l, r)
	for _, s := range Strategies() {
		plan := NewPlan(s, l.Len(), m)
		res, err := ExecuteOpts(nil, l, r, plan, nil, Serial())
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if got := normalize(res); !equalJoin(got, want) {
			t.Errorf("%v: wrong join result", s)
		}
	}
	if _, err := ExecuteOpts(nil, l, r, Plan{Strategy: Strategy(99)}, nil, Serial()); err == nil {
		t.Error("unknown strategy executed")
	}
}

func TestExecuteAutoPlan(t *testing.T) {
	m := memsim.Origin2000()
	l, r := workload.JoinInputs(2048, 10)
	plan := NewPlan(Auto, l.Len(), m)
	if plan.Strategy == Auto {
		t.Fatal("Auto did not resolve to a concrete strategy")
	}
	res, err := ExecuteOpts(nil, l, r, plan, nil, Serial())
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2048 {
		t.Errorf("auto join returned %d pairs", res.Len())
	}
}

func TestPlanAutoAvoidsBaselinesAtScale(t *testing.T) {
	// §4: cache-conscious algorithms beat the random-access baselines;
	// the optimizer must never pick simple hash for a relation far
	// beyond cache capacity.
	m := memsim.Origin2000()
	plan := PlanAuto(8<<20, m)
	if plan.Strategy == SimpleHash || plan.Strategy == SortMerge {
		t.Errorf("auto picked %v at 8M tuples", plan.Strategy)
	}
	if plan.Bits == 0 {
		t.Error("auto picked no clustering at 8M tuples")
	}
}

func TestPredictPlanPositive(t *testing.T) {
	m := memsim.Origin2000()
	for _, s := range Strategies() {
		p := NewPlan(s, 1<<20, m)
		b := PredictPlan(p, 1<<20, m)
		if b.Total(m) <= 0 {
			t.Errorf("%v: non-positive prediction", s)
		}
	}
}

func TestExecuteTinyCardinalities(t *testing.T) {
	// At tiny cardinalities every strategy collapses to its B=0
	// degenerate (simple hash or nested loop) and must stay correct.
	m := memsim.Origin2000()
	for _, n := range []int{1, 2, 7, 16} {
		l, r := workload.JoinInputs(n, uint64(n))
		want := refJoin(l, r)
		for _, s := range Strategies() {
			plan := NewPlan(s, n, m)
			res, err := ExecuteOpts(nil, l, r, plan, nil, Serial())
			if err != nil {
				t.Fatalf("n=%d %v: %v", n, s, err)
			}
			if got := normalize(res); !equalJoin(got, want) {
				t.Errorf("n=%d %v: wrong result", n, s)
			}
		}
	}
}

func TestStrategyBitsAtMaxClamp(t *testing.T) {
	// Enormous cardinalities must clamp to MaxBits, not overflow.
	m := memsim.Origin2000()
	if got := StrategyBits(RadixMin, 1<<30, m); got != MaxBits {
		t.Errorf("bits at 2^30 = %d, want clamp at %d", got, MaxBits)
	}
}

func TestUsesRadixJoin(t *testing.T) {
	if !Radix8.UsesRadixJoin() || !RadixMin.UsesRadixJoin() {
		t.Error("radix strategies misclassified")
	}
	if PhashL1.UsesRadixJoin() || SimpleHash.UsesRadixJoin() {
		t.Error("hash strategies misclassified")
	}
}

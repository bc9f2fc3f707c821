package core

import (
	"fmt"

	"monetlite/internal/bat"
	"monetlite/internal/hashtab"
	"monetlite/internal/memsim"
)

// Strategy enumerates the join strategies compared in §3.4.4 and
// Figure 13.
type Strategy int

// The §3.4.4 strategy set. The four named diagonal strategies of
// Figure 12 are PhashL2, PhashTLB, PhashL1 and Radix8; Phash256,
// PhashMin (≈200-tuple clusters) and RadixMin (≈4-tuple clusters) are
// the empirically optimal settings the paper identifies beyond them.
const (
	SimpleHash Strategy = iota // non-partitioned bucket-chained hash join
	SortMerge                  // sort both inputs, merge
	PhashL2                    // partitioned hash: inner cluster + table fits L2
	PhashTLB                   // partitioned hash: inner cluster spans ≤ |TLB| pages
	PhashL1                    // partitioned hash: inner cluster + table fits L1
	Phash256                   // partitioned hash: ≈256-tuple clusters
	PhashMin                   // partitioned hash: ≈200-tuple clusters ("phash min")
	Radix8                     // radix-join: ≈8-tuple clusters
	RadixMin                   // radix-join: ≈4-tuple clusters ("radix min")
	Auto                       // pick the cheapest strategy by predicted cost
)

// Strategies lists the concrete (non-Auto) strategies in Figure-13
// legend order.
func Strategies() []Strategy {
	return []Strategy{SortMerge, SimpleHash, PhashL2, PhashTLB, PhashL1, Phash256, PhashMin, Radix8, RadixMin}
}

func (s Strategy) String() string {
	switch s {
	case SimpleHash:
		return "simple hash"
	case SortMerge:
		return "sort-merge"
	case PhashL2:
		return "phash L2"
	case PhashTLB:
		return "phash TLB"
	case PhashL1:
		return "phash L1"
	case Phash256:
		return "phash 256"
	case PhashMin:
		return "phash min"
	case Radix8:
		return "radix 8"
	case RadixMin:
		return "radix min"
	case Auto:
		return "auto"
	}
	return fmt.Sprintf("strategy(%d)", int(s))
}

// UsesRadixJoin reports whether the strategy's join phase is the
// nested-loop radix-join (vs hash or merge).
func (s Strategy) UsesRadixJoin() bool { return s == Radix8 || s == RadixMin }

// PhashTupleBytes is the per-tuple footprint §3.4.4 uses for the
// partitioned hash-join strategies: the 8-byte BUN plus the amortized
// bucket-chained hash table (≈4 bytes of chain + head).
const PhashTupleBytes = 12

// RadixTupleBytes is the per-tuple footprint of radix-join clusters.
const RadixTupleBytes = 8

// ceilLog2 returns ⌈log2(x)⌉ for x ≥ 1, and 0 for x ≤ 1.
func ceilLog2(x int) int {
	b := 0
	for (1 << b) < x {
		b++
	}
	return b
}

// StrategyBits computes the number of radix bits B the strategy
// prescribes for cardinality c on machine m (§3.4.4): e.g. phash L2
// uses B = log2(C·12/‖L2‖) so the inner cluster plus hash table fits
// the L2 cache. Results are clamped to [0, MaxBits].
func StrategyBits(s Strategy, c int, m memsim.Machine) int {
	if c <= 0 {
		return 0
	}
	bits := 0
	switch s {
	case SimpleHash, SortMerge:
		return 0
	case PhashL2:
		bits = ceilLog2((c*PhashTupleBytes + m.L2.Size - 1) / m.L2.Size)
	case PhashTLB:
		bits = ceilLog2((c*PhashTupleBytes + m.TLB.Span() - 1) / m.TLB.Span())
	case PhashL1:
		bits = ceilLog2((c*PhashTupleBytes + m.L1.Size - 1) / m.L1.Size)
	case Phash256:
		bits = ceilLog2((c + 255) / 256)
	case PhashMin:
		bits = ceilLog2((c + 199) / 200)
	case Radix8:
		bits = ceilLog2((c + 7) / 8)
	case RadixMin:
		bits = ceilLog2((c + 3) / 4)
	default:
		return 0
	}
	if bits < 0 {
		bits = 0
	}
	if bits > MaxBits {
		bits = MaxBits
	}
	return bits
}

// Plan is a fully resolved join plan: strategy plus the radix-cluster
// tuning parameters B and P of §3.4.
type Plan struct {
	Strategy Strategy
	Bits     int
	Passes   int
}

func (p Plan) String() string {
	if p.Bits == 0 {
		return p.Strategy.String()
	}
	return fmt.Sprintf("%s (B=%d, P=%d)", p.Strategy, p.Bits, p.Passes)
}

// Validate rejects hand-built plans whose radix parameters the
// cluster kernels cannot execute correctly: bits outside [0, MaxBits]
// (oversized shifts would silently mis-cluster) or a pass count that
// cannot distribute the bits.
func (p Plan) Validate() error {
	if err := CheckBits(p.Bits); err != nil {
		return err
	}
	if p.Bits > 0 && (p.Passes < 1 || p.Passes > p.Bits) {
		return fmt.Errorf("core: %d passes invalid for %d bits", p.Passes, p.Bits)
	}
	return nil
}

// NewPlan resolves a concrete strategy into bits and passes for
// cardinality c on machine m. Auto is resolved by predicted cost; see
// PlanAuto.
func NewPlan(s Strategy, c int, m memsim.Machine) Plan {
	if s == Auto {
		return PlanAuto(c, m)
	}
	bits := StrategyBits(s, c, m)
	passes := 1
	if bits > 0 {
		passes = OptimalPasses(bits, m)
	}
	return Plan{Strategy: s, Bits: bits, Passes: passes}
}

// ExecuteOpts runs the plan on operands l (outer) and r (inner) on the
// configured execution engine, returning the join index. The
// baseline strategies (simple hash, sort-merge) have no partitioned
// join phase to fan out and always run serially; instrumented runs
// (sim != nil) are serial by contract.
func ExecuteOpts(sim *memsim.Sim, l, r *bat.Pairs, p Plan, h hashtab.Hash, opt Options) (*JoinIndex, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	switch p.Strategy {
	case SimpleHash:
		return SimpleHashJoin(sim, l, r, h)
	case SortMerge:
		return SortMergeJoin(sim, l, r)
	case PhashL2, PhashTLB, PhashL1, Phash256, PhashMin:
		if p.Bits == 0 {
			return SimpleHashJoin(sim, l, r, h)
		}
		return PartitionedHashJoinOpts(sim, l, r, p.Bits, p.Passes, h, opt)
	case Radix8, RadixMin:
		if p.Bits == 0 {
			return NestedLoopJoin(sim, l, r)
		}
		return RadixJoinOpts(sim, l, r, p.Bits, p.Passes, h, opt)
	default:
		return nil, fmt.Errorf("core: cannot execute strategy %v", p.Strategy)
	}
}

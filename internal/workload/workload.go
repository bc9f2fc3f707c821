// Package workload generates the deterministic synthetic inputs of the
// paper's experiments: BATs of 8-byte [OID,value] tuples with uniformly
// distributed unique random values (§3.4.1), join inputs with hit-rate
// one, skewed variants for the extension ablations, and the Figure-4
// "Item" table for the DSM examples.
//
// All generators use an embedded splitmix64 PRNG so results are
// bit-identical across Go releases.
package workload

import (
	"fmt"
	"math"

	"monetlite/internal/bat"
)

// RNG is a splitmix64 pseudo-random generator: tiny, fast, and with a
// fixed algorithm so experiment inputs never change under us.
type RNG struct{ state uint64 }

// NewRNG seeds a generator. Distinct seeds give independent streams.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next 64 random bits (splitmix64 step).
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint32 returns 32 random bits.
func (r *RNG) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("workload: Intn on non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Shuffle permutes xs in place (Fisher–Yates).
func Shuffle[T any](r *RNG, xs []T) {
	for i := len(xs) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// feistel32 is a 4-round balanced Feistel network on 32 bits keyed by
// the seed: a bijection on [0, 2^32), so mapping distinct inputs yields
// unique, roughly uniform 32-bit values — "uniformly distributed unique
// random numbers" without a sort or a dedup pass.
func feistel32(x uint32, seed uint64) uint32 {
	l, r := uint16(x>>16), uint16(x)
	for round := 0; round < 4; round++ {
		k := uint32(seed>>(16*uint(round%4))) ^ uint32(round)*0x9e37
		f := uint16((uint32(r)*0x85ebca6b + k) >> 13)
		l, r = r, l^f
	}
	return uint32(l)<<16 | uint32(r)
}

// UniqueValues returns n unique, roughly uniform 32-bit values.
func UniqueValues(n int, seed uint64) []uint32 {
	vals := make([]uint32, n)
	for i := range vals {
		vals[i] = feistel32(uint32(i), seed)
	}
	return vals
}

// UniquePairs builds the experimental BAT of §3.4.1: n BUNs with dense
// OIDs 0..n-1 and unique uniform random values, in random storage
// order.
func UniquePairs(n int, seed uint64) *bat.Pairs {
	rng := NewRNG(seed)
	p := bat.NewPairs(n)
	vals := UniqueValues(n, seed^0xace1)
	for i := range p.BUNs {
		p.BUNs[i] = bat.Pair{Head: bat.Oid(i), Tail: vals[i]}
	}
	Shuffle(rng, p.BUNs)
	return p
}

// JoinInputs builds the two join operands of the §3.4 experiments:
// equal cardinality, identical unique value sets in independent random
// orders, so the equi-join hit rate is exactly one and the result is a
// join index of n [OID,OID] pairs.
func JoinInputs(n int, seed uint64) (l, r *bat.Pairs) {
	vals := UniqueValues(n, seed^0xace1)
	l, r = bat.NewPairs(n), bat.NewPairs(n)
	for i := 0; i < n; i++ {
		l.BUNs[i] = bat.Pair{Head: bat.Oid(i), Tail: vals[i]}
		r.BUNs[i] = bat.Pair{Head: bat.Oid(i), Tail: vals[i]}
	}
	Shuffle(NewRNG(seed^0x1), l.BUNs)
	Shuffle(NewRNG(seed^0x2), r.BUNs)
	return l, r
}

// DensePairs returns n BUNs with values = a permutation of [0, n):
// handy for tests that need a known value domain.
func DensePairs(n int, seed uint64) *bat.Pairs {
	p := bat.NewPairs(n)
	for i := range p.BUNs {
		p.BUNs[i] = bat.Pair{Head: bat.Oid(i), Tail: uint32(i)}
	}
	Shuffle(NewRNG(seed), p.BUNs)
	return p
}

// zipfLowBits draws values whose low `bits` bits follow a Zipf rank
// distribution (rank 0 = radix 0) while the high bits keep them
// globally unique.
func zipfLowBits(n, bits int, s float64, seed uint64) []uint32 {
	domain := 1 << bits
	rng := NewRNG(seed)
	cum := make([]float64, domain)
	total := 0.0
	for i := 0; i < domain; i++ {
		total += 1 / math.Pow(float64(i+1), s)
		cum[i] = total
	}
	vals := make([]uint32, n)
	for i := range vals {
		x := rng.Float64() * total
		lo, hi := 0, domain-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cum[mid] < x {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		// High bits = per-value counter: uniqueness regardless of the
		// skewed low bits.
		vals[i] = uint32(i)<<bits | uint32(lo)
	}
	return vals
}

// SkewedJoinInputs builds join operands whose radix distribution over
// the low `bits` bits is Zipf-skewed with exponent s, while every key
// stays unique and the hit rate stays one. Used by the skew ablation:
// the paper's experiments are uniform (§3.4.1), and skew breaks the
// equal-cluster-size assumption behind the B-bit strategy formulas.
func SkewedJoinInputs(n, bits int, s float64, seed uint64) (l, r *bat.Pairs) {
	vals := zipfLowBits(n, bits, s, seed^0xbeef)
	l, r = bat.NewPairs(n), bat.NewPairs(n)
	for i := 0; i < n; i++ {
		l.BUNs[i] = bat.Pair{Head: bat.Oid(i), Tail: vals[i]}
		r.BUNs[i] = bat.Pair{Head: bat.Oid(i), Tail: vals[i]}
	}
	Shuffle(NewRNG(seed^0x3), l.BUNs)
	Shuffle(NewRNG(seed^0x4), r.BUNs)
	return l, r
}

// Sizes of the paper's cardinality sweeps.
var (
	// Fig10Cards are the radix-join cardinalities of Figure 10 (64M is
	// behind the -full flag in the harness, like the paper's truncated
	// 15-minute runs).
	Fig10Cards = []int{15625, 125000, 1000000, 8000000}
	// Fig12Cards are the overall-performance cardinalities of Figure 12.
	Fig12Cards = []int{15625, 62500, 250000, 1000000, 4000000, 16000000, 64000000}
	// Fig13Cards are the Figure 13 x-axis points, in thousands:
	// 16, 64, 256, 1024, 4096, 16384, 65536.
	Fig13Cards = []int{16000, 64000, 256000, 1024000, 4096000, 16384000, 65536000}
)

// Describe returns a human-readable cardinality label (e.g. "8M").
func Describe(n int) string {
	switch {
	case n >= 1000000 && n%1000000 == 0:
		return fmt.Sprintf("%dM", n/1000000)
	case n >= 1000 && n%1000 == 0:
		return fmt.Sprintf("%dK", n/1000)
	default:
		return fmt.Sprintf("%d", n)
	}
}

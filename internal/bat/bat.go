// Package bat implements Monet's vertically decomposed storage model
// (§3.1 of the paper): Binary Association Tables (BATs) holding
// fixed-size two-field [OID,value] records (BUNs), virtual-OID (void)
// columns computed positionally instead of stored, and 1-/2-byte
// dictionary encodings for low-cardinality columns.
package bat

import (
	"fmt"

	"monetlite/internal/memsim"
)

// Oid is a Monet object identifier: a 4-byte surrogate joining the
// decomposed columns of one relational tuple.
type Oid uint32

// Pair is one BUN of the experimental BATs of §3.4.1: two 4-byte
// fields, 8 bytes wide in memory exactly as in the paper.
type Pair struct {
	Head Oid    // object identifier
	Tail uint32 // integer value (the join/cluster key)
}

// PairSize is the in-memory width of a Pair in bytes.
const PairSize = 8

// Pairs is a BAT of fixed 8-byte BUNs, optionally bound to a simulated
// address so instrumented operators can mirror their accesses into a
// memsim.Sim.
type Pairs struct {
	BUNs []Pair
	base uint64
}

// NewPairs returns an unbound BAT with n zeroed BUNs.
func NewPairs(n int) *Pairs { return &Pairs{BUNs: make([]Pair, n)} }

// FromPairs wraps an existing BUN slice as an unbound BAT.
func FromPairs(buns []Pair) *Pairs { return &Pairs{BUNs: buns} }

// Len returns the cardinality of the BAT.
func (p *Pairs) Len() int { return len(p.BUNs) }

// Bytes returns the total BUN storage in bytes (||Re|| in the paper).
func (p *Pairs) Bytes() int { return len(p.BUNs) * PairSize }

// Bind assigns the BAT a simulated base address from sim's allocator.
// Binding an already-bound BAT is a no-op, so temporaries can be bound
// defensively.
func (p *Pairs) Bind(sim *memsim.Sim) {
	if sim == nil || p.base != 0 {
		return
	}
	p.base = sim.Alloc(p.Bytes())
}

// Bound reports whether the BAT has a simulated address.
func (p *Pairs) Bound() bool { return p.base != 0 }

// Unbind detaches the BAT from simulated address space so it can be
// re-bound to a fresh Sim (experiment harnesses reuse one workload BAT
// across many simulator instances).
func (p *Pairs) Unbind() { p.base = 0 }

// Addr returns the simulated address of BUN i. The BAT must be bound.
func (p *Pairs) Addr(i int) uint64 { return p.base + uint64(i)*PairSize }

// Base returns the simulated base address (0 when unbound).
func (p *Pairs) Base() uint64 { return p.base }

// Slice returns a view of BUNs [lo, hi) sharing storage and simulated
// addresses with p: the clusters of a radix-clustered BAT are such
// views, contiguous in the parent (§3.3.1: cluster boundaries need no
// extra structure).
func (p *Pairs) Slice(lo, hi int) *Pairs {
	v := &Pairs{BUNs: p.BUNs[lo:hi]}
	if p.base != 0 {
		v.base = p.base + uint64(lo)*PairSize
	}
	return v
}

// Clone returns an unbound deep copy of the BAT.
func (p *Pairs) Clone() *Pairs {
	c := make([]Pair, len(p.BUNs))
	copy(c, p.BUNs)
	return &Pairs{BUNs: c}
}

// Validate checks basic BAT invariants (non-nil storage).
func (p *Pairs) Validate() error {
	if p.BUNs == nil {
		return fmt.Errorf("bat: nil BUN storage")
	}
	return nil
}

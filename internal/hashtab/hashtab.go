// Package hashtab implements the bucket-chained hash table of
// main-memory join processing ([LC86], §3.2–3.4 of the paper): an
// array of bucket heads plus a chain array parallel to the build
// relation.
//
// The table is the building block of the non-partitioned ("simple")
// hash-join and the per-cluster joins of partitioned hash-join, which
// share one kernel pair in internal/core, and of the engine's HashProbe
// pipeline stage. All structures live in flat arrays so the
// instrumented mode can mirror every probe into a memsim.Sim exactly
// the way the paper's cost model counts them: up to 8 accesses per
// tuple through head/chain plus 2 for the tuple itself.
//
// The two observers use two bucket geometries. A simulated Build keeps
// the paper's mean chain of ChainTarget entries (BucketsFor): the Th
// model, the figures and the pinned simulated counters all assume it.
// A native Build spreads the same tuples over ChainTarget times as many
// buckets (NativeBuckets), a mean chain of at most one: on current
// hosts a cache-resident probe costs its chain walk, not the 3 extra
// bytes of heads per tuple the wider array takes. Every key's entries share
// one bucket whatever the bucket count, and a chain lists them in
// reverse insertion order, so both geometries emit a key's matches in
// the same order and every join result is identical.
//
// Native joins probe a vector of keys at a time with ProbeVec: core's
// per-cluster hash-join kernel and the HashProbe stage. Probe, one key
// through a callback, is the per-tuple form of the cost model's
// sequence, which core's simulated hash-join kernel replays; natively
// only cmd/mlbench's hashtab.probe_* kernels still call it.
package hashtab

import (
	"fmt"

	"monetlite/internal/bat"
	"monetlite/internal/memsim"
)

// ChainTarget is the designed mean bucket-chain length of a simulated
// build: the paper tunes cluster sizes "like the length of the
// bucket-chain in a hash-table" to a small constant, and its Th model
// assumes a bucket-chain length of 4. A native build's chains are
// ChainTarget times shorter (NativeBuckets).
const ChainTarget = 4

// none marks the end of a bucket chain.
const none int32 = -1

// Hash is the integer hash that picks a key's radix cluster and hash
// bucket: key·m mod 2^32 for the Multiplier's constant m, of which a
// radix pass or a table takes the bits above a shift. It is data, not
// a function, so every cluster, build and probe kernel loads m once
// and applies it inline — one multiply a tuple, no call. nil is
// Identity. The
// experiments join unique uniform integers, where the identity on the
// low bits is exactly what Monet uses; Mult is available for
// adversarial domains.
type Hash = *Multiplier

// Multiplier is the constant of a multiplicative Hash.
type Multiplier struct{ m uint32 }

// Mul returns the constant keys are multiplied by: 1 for nil.
func (h *Multiplier) Mul() uint32 {
	if h == nil {
		return 1
	}
	return h.m
}

var (
	// Identity hashes a key to itself (low bits select the bucket).
	Identity Hash = &Multiplier{1}
	// Mult is Knuth's multiplicative hash (golden-ratio constant).
	Mult Hash = &Multiplier{2654435761}
)

// Table is a bucket-chained hash table over the Tail values of a BAT.
// Entry i chains the i-th build tuple. A Table is allocated once for a
// maximum build size and can be Reset cheaply for successive builds
// (partitioned hash-join reuses one table across clusters, the way a
// real allocator would hand back the same warm memory).
type Table struct {
	mask  uint32  // live buckets of the current build, minus one
	shift uint32  // bucket bits start above the shift lowest hash bits
	mult  uint32  // the Hash's multiplier
	head  []int32 // NativeBuckets(cap) slots; a simulated build uses the first BucketsFor(cap)
	next  []int32 // cap slots; only current build size live
	n     int     // current build size

	// Simulated addresses of the head and next arrays (4 bytes/slot).
	headBase uint64
	nextBase uint64
}

// BucketsFor returns the bucket count of a simulated build of n tuples:
// the smallest power of two giving a mean chain of at most ChainTarget,
// the table the paper's cost model and counters price.
func BucketsFor(n int) int {
	b := 1
	for b*ChainTarget < n {
		b <<= 1
	}
	return b
}

// NativeBuckets returns the bucket count of a native build of n
// tuples: ChainTarget times BucketsFor(n), a mean chain of at most one.
func NativeBuckets(n int) int { return ChainTarget * BucketsFor(n) }

// New allocates a table sized for builds of up to maxN tuples.
func New(maxN int, h Hash) *Table { return NewShifted(maxN, 0, h) }

// NewShifted allocates a table whose bucket index is taken from the
// hash bits above the shift lowest ones. A table built over one radix
// cluster MUST shift past the radix bits: inside cluster k all keys
// agree on the B lowest hash bits, so bucketing on them would chain
// the entire cluster into a single bucket (§3.3: the cluster bits and
// the bucket bits partition different parts of the hash value).
func NewShifted(maxN, shift int, h Hash) *Table {
	if maxN < 0 {
		panic("hashtab: negative capacity")
	}
	if shift < 0 || shift > 31 {
		panic(fmt.Sprintf("hashtab: shift %d outside [0, 31]", shift))
	}
	return &Table{
		shift: uint32(shift),
		mult:  h.Mul(),
		head:  make([]int32, NativeBuckets(maxN)),
		next:  make([]int32, maxN),
	}
}

// Buckets returns the live bucket count of the current build.
func (t *Table) Buckets() int { return int(t.mask) + 1 }

// Cap returns the maximum build size the table was allocated for.
func (t *Table) Cap() int { return len(t.next) }

// Bytes returns the live footprint of the current build: heads plus
// chain entries, 4 bytes each. Together with the 8-byte build tuples
// this is the "inner relation plus hash-table" ≈ 12 bytes/tuple of
// §3.4.4.
func (t *Table) Bytes() int { return 4 * (t.Buckets() + t.n) }

// Bind allocates simulated addresses for the head and chain arrays:
// the heads of the simulated geometry, BucketsFor(cap) slots.
func (t *Table) Bind(sim *memsim.Sim) {
	if sim == nil || t.headBase != 0 {
		return
	}
	t.headBase = sim.Alloc(4 * len(t.head) / ChainTarget)
	t.nextBase = sim.Alloc(4 * len(t.next))
}

// Build resets the table and inserts all tuples of build: natively over
// NativeBuckets(n) buckets, or, with a non-nil sim (the BAT must be
// bound then), over BucketsFor(n) buckets, mirroring every access. A
// build larger than the table's allocated capacity grows the table
// first — capacities are sized from cardinality *estimates*, and skewed
// data routinely exceeds them, which must degrade into a realloc,
// never a crash.
func (t *Table) Build(sim *memsim.Sim, build *bat.Pairs) {
	n := build.Len()
	if n > len(t.next) {
		t.grow(sim, n)
	}
	t.Bind(sim)
	t.n = n
	if sim != nil {
		t.buildSim(sim, build)
		return
	}
	buckets := NativeBuckets(n)
	t.mask = uint32(buckets - 1)
	head, next := t.head[:buckets], t.next[:n]
	m, shift, mask := t.mult, t.shift, t.mask
	for i := range head {
		head[i] = none
	}
	for i, bun := range build.BUNs {
		h := (bun.Tail * m >> shift) & mask
		next[i] = head[h]
		head[h] = int32(i)
	}
}

// buildSim is Build's simulated body over the paper's geometry.
func (t *Table) buildSim(sim *memsim.Sim, build *bat.Pairs) {
	buckets := BucketsFor(t.n)
	t.mask = uint32(buckets - 1)
	m, shift, mask := t.mult, t.shift, t.mask
	for i := 0; i < buckets; i++ {
		sim.Write(t.headBase+uint64(i)*4, 4)
		t.head[i] = none
	}
	for i, bun := range build.BUNs {
		sim.Read(build.Addr(i), bat.PairSize) // fetch build tuple
		h := (bun.Tail * m >> shift) & mask
		sim.Read(t.headBase+uint64(h)*4, 4)  // old chain head
		sim.Write(t.nextBase+uint64(i)*4, 4) // link entry
		sim.Write(t.headBase+uint64(h)*4, 4) // new chain head
		t.next[i] = t.head[h]
		t.head[h] = int32(i)
	}
}

// grow reallocates the head and chain arrays for builds of up to n
// tuples (the simulated-memory equivalent of a realloc: previously
// bound tables get fresh simulated addresses for the new regions).
func (t *Table) grow(sim *memsim.Sim, n int) {
	t.next = make([]int32, n)
	if b := NativeBuckets(n); b > len(t.head) {
		t.head = make([]int32, b)
	}
	if t.headBase != 0 {
		// Rebind: the old addresses cover too few slots. With a live sim
		// allocate the new regions now; otherwise clear the bases so the
		// next instrumented Bind re-allocates.
		t.headBase, t.nextBase = 0, 0
		t.Bind(sim)
	}
}

// Probe walks the chain for key, in the geometry of the last Build,
// and calls emit for every build position whose Tail equals key.
// Accesses are mirrored into sim when non-nil. Core's simulated hash-join kernel calls it once per outer
// tuple; native joins use ProbeVec.
func (t *Table) Probe(sim *memsim.Sim, build *bat.Pairs, key uint32, emit func(pos int32)) {
	h := (key * t.mult >> t.shift) & t.mask
	if sim == nil {
		for e := t.head[h]; e != none; e = t.next[e] {
			if build.BUNs[e].Tail == key {
				emit(e)
			}
		}
		return
	}
	sim.Read(t.headBase+uint64(h)*4, 4)
	for e := t.head[h]; e != none; e = t.next[e] {
		sim.Read(build.Addr(int(e)), bat.PairSize) // candidate tuple
		if build.BUNs[e].Tail == key {
			emit(e)
		}
		sim.Read(t.nextBase+uint64(e)*4, 4) // follow chain
	}
}

// Cursor is where a ProbeVec call resumes: the next key to probe and,
// when a full output cut a chain walk short, the next entry of that
// key's chain.
type Cursor struct {
	Key   int // index of the next key; the probe is done at len(keys)
	entry int32
	mid   bool // entry continues keys[Key]'s chain
}

// ProbeVec is Probe over a vector of keys without a callback: from c
// on, it walks each key's chain and writes every match as the pair
// (tags[k], build position) into outTag and outPos — keys in order,
// each key's matches in chain order — until the outputs are full or
// the keys run out, and returns the pairs written. c then records
// where to resume, mid-chain if need be, so successive calls emit
// every match exactly once and mirror exactly the accesses one
// unbroken Probe per key would. outTag and outPos must have the same
// non-zero length. Core's native hash-join kernel and the engine's
// HashProbe stage (native and simulated) call it.
//
//monet:kernel
func (t *Table) ProbeVec(sim *memsim.Sim, build *bat.Pairs, keys []uint32, tags []int32, c *Cursor, outTag, outPos []int32) int {
	if sim != nil {
		return t.probeVecSim(sim, build, keys, tags, c, outTag, outPos)
	}
	head, next, buns := t.head, t.next, build.BUNs
	m, shift, mask := t.mult, t.shift, t.mask
	tags, outPos = tags[:len(keys)], outPos[:len(outTag)]
	n, e, mid := 0, c.entry, c.mid
	for k := c.Key; k < len(keys); k++ {
		key := keys[k]
		if !mid {
			e = head[(key*m>>shift)&mask]
		}
		mid = false
		for e != none {
			// Branch-free emit: write the slot, keep it only on a match.
			outTag[n], outPos[n] = tags[k], e
			if buns[e].Tail == key {
				n++
			}
			e = next[e]
			if n == len(outTag) {
				c.Key, c.entry, c.mid = k, e, e != none
				if e == none {
					c.Key++
				}
				return n
			}
		}
	}
	c.Key, c.mid = len(keys), false
	return n
}

// probeVecSim is ProbeVec under a simulator: the same walk, mirroring
// every access the way Probe does.
func (t *Table) probeVecSim(sim *memsim.Sim, build *bat.Pairs, keys []uint32, tags []int32, c *Cursor, outTag, outPos []int32) int {
	m, shift, mask := t.mult, t.shift, t.mask
	n, e := 0, c.entry
	for k := c.Key; k < len(keys); k++ {
		key := keys[k]
		if !c.mid {
			h := (key * m >> shift) & mask
			sim.Read(t.headBase+uint64(h)*4, 4)
			e = t.head[h]
		}
		c.mid = false
		for e != none {
			sim.Read(build.Addr(int(e)), bat.PairSize) // candidate tuple
			if build.BUNs[e].Tail == key {
				outTag[n], outPos[n] = tags[k], e
				n++
			}
			sim.Read(t.nextBase+uint64(e)*4, 4) // follow chain
			e = t.next[e]
			if n == len(outTag) {
				c.Key, c.entry, c.mid = k, e, e != none
				if e == none {
					c.Key++
				}
				return n
			}
		}
	}
	c.Key = len(keys)
	return n
}

// ChainLen returns the chain length of key's bucket (diagnostics).
func (t *Table) ChainLen(key uint32) int {
	n := 0
	for e := t.head[(key*t.mult>>t.shift)&t.mask]; e != none; e = t.next[e] {
		n++
	}
	return n
}

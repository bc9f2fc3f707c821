package costmodel

// Memory-access descriptions: an operator, stage or phase describes
// what it does to memory as a short list of Accesses, and both its
// prediction and its reported traffic derive from that one list. Price
// turns it into the §3.4 per-event miss breakdown (plus CPU) on the
// model's machine, Bytes into the bytes it reads and writes; the
// planner evaluates a description on its estimates, EXPLAIN ANALYZE on
// the actual rows. A list is a plain sum, not the full access-pattern
// algebra of Manegold, Boncz and Kersten (VLDB 2002).

// Pattern is the shape of one memory access.
type Pattern uint8

const (
	// Sweep moves Count×Width bytes sequentially: one miss per cache
	// line and page, the optimal locality of a scan-select (§3.2).
	Sweep Pattern = iota
	// Random makes Count accesses at random into a Region-byte
	// footprint. Each misses a cache the region outgrows, scaled by the
	// share of the region beyond it, but never more often than the
	// region has lines (or pages): a dense random pattern degenerates
	// to a sweep that touches each line once.
	Random
	// Probe makes Count independent probes into a resident structure of
	// Region bytes (a hash table). It never degenerates to a sweep: two
	// touches of a line are a footprint's worth of other probes apart,
	// so once the footprint exceeds a cache every probe misses at the
	// capacity rate — §3.2's "each memory reference a cache miss".
	Probe
	// Touch reads Count cold lines of Width bytes, a miss at every level
	// each: a CSS-tree descent, one node a level.
	Touch
	// Cluster is Passes §3.4.2 radix-cluster passes of Bits bits over
	// Count tuples of Width bytes, each pass reading and writing them all.
	Cluster
)

// Access is one term of a description: Count accesses of Width bytes,
// plus the CPU nanoseconds of work they carry.
type Access struct {
	Pattern Pattern
	Write   bool // the bytes are written, not read (Cluster does both)
	Count   float64
	Width   float64
	Region  float64 // Random, Probe: the footprint accessed
	Bits    float64 // Cluster: radix bits per pass
	Passes  float64 // Cluster
	CPU     float64
}

// Price returns a description's predicted breakdown: its accesses'
// misses and CPU, summed in order.
func (m Model) Price(as ...Access) Breakdown {
	var b Breakdown
	for _, a := range as {
		var p Breakdown
		switch a.Pattern {
		case Sweep:
			p = m.seqBreakdown(a.Count * a.Width)
		case Random:
			p = m.randomBreakdown(a.Count, a.Region)
		case Probe:
			p = m.probeBreakdown(a.Count, a.Region)
		case Touch:
			p = Breakdown{L1Misses: a.Count, L2Misses: a.Count, TLBMisses: a.Count}
		case Cluster:
			p = m.ClusterPassBytes(a.Bits, int(a.Count), int(a.Width)).scale(a.Passes)
		}
		p.CPUNanos += a.CPU
		b = b.add(p)
	}
	return b
}

// Bytes returns the bytes a description reads and writes: Count×Width
// per access, both ways for every pass of a Cluster.
func Bytes(as ...Access) (read, written float64) {
	for _, a := range as {
		n := a.Count * a.Width
		switch {
		case a.Pattern == Cluster:
			read, written = read+a.Passes*n, written+a.Passes*n
		case a.Write:
			written += n
		default:
			read += n
		}
	}
	return read, written
}

// seqBreakdown is a Sweep over bytes of memory.
func (m Model) seqBreakdown(bytes float64) Breakdown {
	return Breakdown{
		L1Misses:  bytes / float64(m.M.L1.LineSize),
		L2Misses:  bytes / float64(m.M.L2.LineSize),
		TLBMisses: bytes / float64(m.M.TLB.PageSize),
	}
}

// randomBreakdown is k Random accesses into footprint bytes.
func (m Model) randomBreakdown(k, footprint float64) Breakdown {
	miss := func(cache, unit float64) float64 {
		if footprint <= cache {
			return 0
		}
		n := k * (1 - cache/footprint)
		if lines := footprint / unit; n > lines {
			n = lines
		}
		return n
	}
	return Breakdown{
		L1Misses:  miss(float64(m.M.L1.Size), float64(m.M.L1.LineSize)),
		L2Misses:  miss(float64(m.M.L2.Size), float64(m.M.L2.LineSize)),
		TLBMisses: miss(float64(m.M.TLB.Span()), float64(m.M.TLB.PageSize)),
	}
}

// probeBreakdown is k Probes into a structure of footprint bytes.
func (m Model) probeBreakdown(k, footprint float64) Breakdown {
	miss := func(cache float64) float64 {
		if footprint <= cache {
			return 0
		}
		return k * (1 - cache/footprint)
	}
	return Breakdown{
		L1Misses:  miss(float64(m.M.L1.Size)),
		L2Misses:  miss(float64(m.M.L2.Size)),
		TLBMisses: miss(float64(m.M.TLB.Span())),
	}
}

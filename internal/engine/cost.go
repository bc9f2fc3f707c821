package engine

import (
	"math"

	"monetlite/internal/agg"
	"monetlite/internal/core"
	"monetlite/internal/costmodel"
)

// Cost formulas for the physical choices the paper's models do not
// cover directly, assembled from the same per-event methodology (§2,
// §3.4): expected L1/L2/TLB miss counts times calibrated latencies
// plus CPU work. Joins use costmodel's Tc/Tr/Th via core.PredictPlan;
// the formulas here cover selections, gathers and grouping. Every
// formula takes the unified *costmodel.Model — the machine geometry
// and work constants come from model.M, and the planner prices the
// resulting breakdowns through the model's kind-corrected Nanos/Millis
// so learned residuals bend the decisions, not just the reports.

// seqBreakdown models a sequential sweep over bytes of memory: one
// miss per cache line / page, the optimal-locality pattern of a
// scan-select (§3.2).
func seqBreakdown(bytes float64, model *costmodel.Model) costmodel.Breakdown {
	m := model.M
	return costmodel.Breakdown{
		L1Misses:  bytes / float64(m.L1.LineSize),
		L2Misses:  bytes / float64(m.L2.LineSize),
		TLBMisses: bytes / float64(m.TLB.PageSize),
	}
}

// randomBreakdown models k random accesses into a region of footprint
// bytes: every access misses a cache whose capacity the footprint
// exceeds, scaled by the fraction of the region beyond the cache — but
// never more misses than the region has lines (or pages), since a
// dense access pattern degenerates to a sweep that touches each line
// once.
func randomBreakdown(k, footprint float64, model *costmodel.Model) costmodel.Breakdown {
	m := model.M
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
	return costmodel.Breakdown{
		L1Misses:  miss(float64(m.L1.Size), float64(m.L1.LineSize)),
		L2Misses:  miss(float64(m.L2.Size), float64(m.L2.LineSize)),
		TLBMisses: miss(float64(m.TLB.Span()), float64(m.TLB.PageSize)),
	}
}

// probeBreakdown models k independent random probes into a resident
// structure of the given footprint — a grouping hash table. Unlike
// randomBreakdown's gather pattern, probing never degenerates to a
// sweep: successive touches of the same line are separated by roughly
// a footprint's worth of other probes, so once the footprint exceeds a
// cache the line is evicted before its next touch and every probe
// misses at the capacity rate — §3.2's "each memory reference a cache
// miss" regime.
func probeBreakdown(k, footprint float64, model *costmodel.Model) costmodel.Breakdown {
	m := model.M
	miss := func(cache float64) float64 {
		if footprint <= cache {
			return 0
		}
		return k * (1 - cache/footprint)
	}
	return costmodel.Breakdown{
		L1Misses:  miss(float64(m.L1.Size)),
		L2Misses:  miss(float64(m.L2.Size)),
		TLBMisses: miss(float64(m.TLB.Span())),
	}
}

// scanSelectCost predicts a full-column scan select over n values of
// the given stored width, writing k qualifying OIDs.
func scanSelectCost(n int, width int, k float64, model *costmodel.Model) costmodel.Breakdown {
	b := seqBreakdown(float64(n)*float64(width), model)
	out := seqBreakdown(k*4, model)
	b = b.Add(out)
	b.CPUNanos = float64(n)*model.M.Cost.WScanBUN/4 + k*model.M.Cost.WScanBUN/4
	return b
}

// cssSelectCost predicts a CSS-tree range select of k of n entries as
// a pipeline's base stage: a descent of height ceil(log_f n) — one
// cache line per level, randomly placed — then a sequential leaf scan
// of k (key, OID) entries, k marks (a read-modify-write each) at random
// into the n/8-byte position bitmap, which is zeroed and then swept
// once, and the k positions emitted in storage order — the same output
// term a scan-select carries, credited by savedBreakdown once a stage
// follows.
func cssSelectCost(n int, k float64, model *costmodel.Model) costmodel.Breakdown {
	fanout := float64(model.M.L1.LineSize / 4)
	if fanout < 2 {
		fanout = 2
	}
	height := 1.0
	if n > 1 {
		height = math.Ceil(math.Log(float64(n)) / math.Log(fanout))
	}
	b := costmodel.Breakdown{ // descent: one line touch per level
		L1Misses:  height,
		L2Misses:  height,
		TLBMisses: height,
	}
	bitmap := float64(n) / 8
	b = b.Add(seqBreakdown(k*8, model))          // 4-byte key + 4-byte OID per entry
	b = b.Add(randomBreakdown(k, bitmap, model)) // the marks
	b = b.Add(seqBreakdown(2*bitmap+k*4, model)) // zero and sweep the bitmap; positions out
	w := model.M.Cost.WScanBUN
	b.CPUNanos = height*fanout*w/4 + // in-node scans
		k*w/4 + // leaf scan
		k*w + // marks
		float64(n)/64*w/4 + // word tests
		k*w/4 // position emit
	return b
}

// refilterCost predicts re-testing a predicate on k already-selected
// rows of a column spanning footprint bytes: k random gathers plus the
// OID rewrite.
func refilterCost(k, footprint float64, model *costmodel.Model) costmodel.Breakdown {
	b := randomBreakdown(k, footprint, model)
	b = b.Add(seqBreakdown(k*4, model))
	b.CPUNanos = k * model.M.Cost.WScanBUN / 2
	return b
}

// gatherCost predicts materializing k values of the given width from a
// column of footprint bytes through an OID list (nil-OID scans become
// sequential, but the planner conservatively assumes the gather is
// positional/random), writing the k-value temporary sequentially.
func gatherCost(k, footprint float64, width int, model *costmodel.Model) costmodel.Breakdown {
	b := randomBreakdown(k, footprint, model)
	b = b.Add(seqBreakdown(k*float64(width), model))
	b.CPUNanos = k * model.M.Cost.WScanBUN / 4
	return b
}

// groupCost predicts grouping n tuples into g groups. Hash grouping
// (§3.2) makes two random probes per tuple into a table of ~48
// bytes/group — cache-resident while that footprint fits, a
// RAM-latency miss per probe beyond it (probeBreakdown) — and reads
// the tuples once. Over more than one morsel it also compacts one
// partial of up to g rows per morsel, and the merge probes a table of
// all g groups once per partial row; the partial rows themselves are
// charged as CPU, like the result rows every strategy writes (a single
// morsel's partial is the result itself). orderCost then prices the
// result's key order over keys spanning keyBits bits.
func groupCost(n int, g float64, keyBits int, model *costmodel.Model) costmodel.Breakdown {
	table := g * float64(agg.GroupTableBytesPerGroup)
	b := probeBreakdown(2*float64(n), table, model)
	in := seqBreakdown(float64(n)*10, model) // key codes + measure
	b = b.Add(in)
	b.CPUNanos = 2 * float64(n) * model.M.Cost.WScanBUN
	if nm := core.MorselsOf(n); nm > 1 {
		parts := float64(nm) * math.Min(g, float64(n)/float64(nm))
		b = b.Add(probeBreakdown(parts, table, model))
		b.CPUNanos += 1.25 * parts * model.M.Cost.WScanBUN // compact, then merge
	}
	return b.Add(orderCost(g, keyBits, model))
}

// orderCost predicts putting g result rows, whose keys span keyBits
// bits, in key order (agg.GroupResult.SortByKey): one scan of the keys
// for their range, then per LSD radix pass a histogram read of the
// keys (WScanBUN/4 a key, like a scan) and one §3.4.2 cluster pass —
// a sequential read and a scatter of the 40-byte rows on the pass's
// digit bits, wc a row. Hash and radix grouping pay it alike, so it
// moves the choice between them only through learned per-kind
// corrections.
func orderCost(g float64, keyBits int, model *costmodel.Model) costmodel.Breakdown {
	passes, digit := agg.SortPasses(keyBits)
	b := seqBreakdown(g*8*float64(1+passes), model)
	b.CPUNanos = g * model.M.Cost.WScanBUN / 4 * float64(1+passes)
	if passes == 0 {
		return b
	}
	pass := model.ClusterPassBytes(float64(digit), int(math.Ceil(g)), agg.GroupRowBytes)
	return b.Add(pass.Scale(float64(passes)))
}

// maxAggRadixBits caps the radix-bit choice for aggregation: 2^16
// partitions is already far past any group cardinality where more
// splitting helps, and keeps the offset structure negligible.
const maxAggRadixBits = 16

// radixBitsFor picks the fewest radix bits B such that one partition's
// group table (~48 bytes/group) fits a quarter of L1 — §4's
// cache-sizing criterion applied to the §3.2 aggregation table. 0
// means the whole table is already cache-resident and partitioning
// would be pure overhead.
func radixBitsFor(g float64, model *costmodel.Model) int {
	budget := float64(model.M.L1.Size) / 4
	bits := 0
	for g*float64(agg.GroupTableBytesPerGroup)/math.Pow(2, float64(bits)) > budget &&
		bits < maxAggRadixBits {
		bits++
	}
	return bits
}

// radixGroupCost predicts radix-partitioned grouping of n tuples into
// g groups on B bits in P passes: the §3.4.2 cluster-pass model over
// the 16-byte (key, value) pairs of the morsel runs, then the
// cache-resident probe phase — two probes per tuple into a
// per-partition table of g·48/2^B bytes, which B was chosen to keep
// inside L1 (so the probe term is ~zero and the cost is the clustering
// plus one stream over the clustered runs), then orderCost's key
// order.
func radixGroupCost(n int, g float64, keyBits, bits, passes int, model *costmodel.Model) costmodel.Breakdown {
	b := model.ClusterPassBytes(float64(bits)/float64(passes), n, agg.PairBytes).
		Scale(float64(passes))
	part := g * float64(agg.GroupTableBytesPerGroup) / math.Pow(2, float64(bits))
	b = b.Add(probeBreakdown(2*float64(n), part, model))
	b = b.Add(seqBreakdown(float64(n)*agg.PairBytes, model)) // stream the clustered runs
	b.CPUNanos += 2 * float64(n) * model.M.Cost.WScanBUN
	return b.Add(orderCost(g, keyBits, model))
}

// subClamp subtracts a predicted saving from a cost breakdown,
// clamping every component at zero — a pipeline can at best eliminate
// its intermediates, never go negative. Used for the
// materialization-traffic term: the bytes an operator-at-a-time
// execution writes to and re-reads from RAM for inter-operator
// intermediates (modelled as sequential sweeps via seqBreakdown) that
// a pipeline keeps cache-resident.
func subClamp(b, saved costmodel.Breakdown) costmodel.Breakdown {
	out := b.Add(saved.Scale(-1))
	if out.L1Misses < 0 {
		out.L1Misses = 0
	}
	if out.L2Misses < 0 {
		out.L2Misses = 0
	}
	if out.TLBMisses < 0 {
		out.TLBMisses = 0
	}
	if out.CPUNanos < 0 {
		out.CPUNanos = 0
	}
	return out
}

// orderByCost predicts a comparison sort of n keys of the given width.
func orderByCost(n int, width int, model *costmodel.Model) costmodel.Breakdown {
	lg := math.Log2(float64(n) + 2)
	b := randomBreakdown(float64(n)*lg/4, float64(n)*float64(width), model)
	b.CPUNanos = float64(n) * lg * model.M.Cost.WScanBUN / 4
	return b
}

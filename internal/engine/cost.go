package engine

import (
	"math"

	"monetlite/internal/agg"
	"monetlite/internal/core"
	"monetlite/internal/costmodel"
	"monetlite/internal/dsm"
)

// Memory-access descriptions (costmodel.Access) of the physical
// choices the paper's models do not cover directly — selections,
// gathers, the HashProbe stage, grouping and sorting — assembled from
// its per-event methodology (§2, §3.4). Each is written once: the
// planner prices it on its estimates (Model.Price, compared through the
// kind-corrected Model.Nanos, so learned residuals bend the decisions)
// and EXPLAIN ANALYZE counts its bytes on the actual rows (bytesOf).
// Joins use costmodel's Tc/Tr/Th via core.PredictPlan. Descriptions are
// fixed-size arrays, so planning allocates nothing for them.

type access = costmodel.Access

// scanSelectAccess: a scan select reads n values of the stored width
// and writes its k positions.
func scanSelectAccess(n, k float64, width int, model *costmodel.Model) [2]access {
	w := model.M.Cost.WScanBUN
	return [2]access{
		{Pattern: costmodel.Sweep, Count: n, Width: float64(width), CPU: n * w / 4},
		{Pattern: costmodel.Sweep, Write: true, Count: k, Width: 4, CPU: k * w / 4},
	}
}

// cssSelectAccess: a CSS-tree range select of k of n entries descends
// ceil(log_f n) one-line nodes, scans k (key, OID) leaf entries, marks
// k words at random in an n/8-byte position bitmap, zeroes and then
// sweeps the bitmap, and emits the k positions in storage order.
func cssSelectAccess(n, k float64, model *costmodel.Model) [6]access {
	fanout := float64(model.M.L1.LineSize / 4)
	if fanout < 2 {
		fanout = 2
	}
	height := 1.0
	if n > 1 {
		height = math.Ceil(math.Log(n) / math.Log(fanout))
	}
	w := model.M.Cost.WScanBUN
	return [6]access{
		{Pattern: costmodel.Touch, Count: height, Width: 4 * fanout, CPU: height * fanout * w / 4},
		{Pattern: costmodel.Sweep, Count: k, Width: 8, CPU: k * w / 4},
		{Pattern: costmodel.Random, Write: true, Count: k, Width: 8, Region: n / 8, CPU: k * w},
		{Pattern: costmodel.Sweep, Write: true, Count: n / 64, Width: 8},
		{Pattern: costmodel.Sweep, Count: n / 64, Width: 8, CPU: n / 64 * w / 4},
		{Pattern: costmodel.Sweep, Write: true, Count: k, Width: 4, CPU: k * w / 4},
	}
}

// refilterAccess: a refilter re-tests k rows of column c at random and
// rewrites their 4-byte OIDs.
func refilterAccess(k float64, c *dsm.Column, model *costmodel.Model) [2]access {
	g := gatherAccess(k, c, 4, model)
	g[0].CPU *= 2
	return g
}

// gatherAccess: materializing k values of column c through an OID list
// reads them at random (assumed positional, even where a nil-OID scan
// reads sequentially) and writes a temporary of width-byte values.
func gatherAccess(k float64, c *dsm.Column, width int, model *costmodel.Model) [2]access {
	return [2]access{
		{Pattern: costmodel.Random, Count: k, Width: float64(c.Width()), Region: columnBytes(c),
			CPU: k * model.M.Cost.WScanBUN / 4},
		{Pattern: costmodel.Sweep, Write: true, Count: k, Width: float64(width)},
	}
}

// groupProbe is n probes into a table of g ~48-byte groups, each
// touching half a group: a tuple's two probes touch all of it.
func groupProbe(n, g, cpu float64) access {
	return access{Pattern: costmodel.Probe, Count: n, Width: agg.GroupTableBytesPerGroup / 2,
		Region: g * agg.GroupTableBytesPerGroup, CPU: cpu}
}

// hashFeedAccess: a hash sink reads n tuples (a key code and a measure)
// and probes the table twice per tuple.
func hashFeedAccess(n, g float64, model *costmodel.Model) [2]access {
	return [2]access{groupProbe(2*n, g, 2*n*model.M.Cost.WScanBUN),
		{Pattern: costmodel.Sweep, Count: n, Width: 10}}
}

// mergeAccess: merging parts partial rows into all g groups probes once
// per row, charged the compaction that made them as CPU.
func mergeAccess(parts, g float64, model *costmodel.Model) [1]access {
	return [1]access{groupProbe(parts, g, 1.25*parts*model.M.Cost.WScanBUN)}
}

// slotProbe is n folds into a key-indexed array of slots 32-byte slots
// (agg.Dense) of which g are used: one slot read-modify-write a fold,
// into a footprint of the used slots' lines at most.
func slotProbe(n, g, slots, cpu float64) access {
	return access{Pattern: costmodel.Probe, Count: n, Width: agg.DenseSlotBytes,
		Region: math.Min(slots*agg.DenseSlotBytes, g*64), CPU: cpu}
}

// arrayFeedAccess: an array sink reads n tuples (a key code and a
// measure) and folds each into its slot: an index, not a probe.
func arrayFeedAccess(n, g, slots float64, model *costmodel.Model) [2]access {
	return [2]access{slotProbe(n, g, slots, n*model.M.Cost.WScanBUN),
		{Pattern: costmodel.Sweep, Count: n, Width: 10}}
}

// arrayMergeAccess: merging parts partial rows into g groups of the
// slots-slot array folds each into its slot, charged the compaction
// that made them as CPU.
func arrayMergeAccess(parts, g, slots float64, model *costmodel.Model) [1]access {
	return [1]access{slotProbe(parts, g, slots, 1.25*parts*model.M.Cost.WScanBUN)}
}

// radixFeedAccess: a radix sink clusters its n 16-byte (key, value)
// pairs on bits bits in passes passes.
func radixFeedAccess(n float64, bits, passes int) [1]access {
	return [1]access{{Pattern: costmodel.Cluster, Count: n, Width: agg.PairBytes,
		Bits: float64(bits) / float64(passes), Passes: float64(passes)}}
}

// partitionsAccess: folding n clustered pairs into 2^bits partitions
// probes each partition's table of g/2^bits groups (which bits keeps in
// L1) twice a pair and streams the runs once.
func partitionsAccess(n, g float64, bits int, model *costmodel.Model) [2]access {
	return [2]access{groupProbe(2*n, g/math.Pow(2, float64(bits)), 2*n*model.M.Cost.WScanBUN),
		{Pattern: costmodel.Sweep, Count: n, Width: agg.PairBytes}}
}

// windowsAccess: folding n range-clustered pairs into g groups through
// 2^bits windows of slots slots each folds every pair into its slot of
// its partition's window, streams the runs once and sweeps every
// window's used-slot bitmap.
func windowsAccess(n, g float64, slots, bits int, model *costmodel.Model) [3]access {
	parts := math.Pow(2, float64(bits))
	return [3]access{slotProbe(n, g/parts, float64(slots), n*model.M.Cost.WScanBUN),
		{Pattern: costmodel.Sweep, Count: n, Width: agg.PairBytes},
		{Pattern: costmodel.Sweep, Count: parts * math.Ceil(float64(slots)/64), Width: 8}}
}

// orderAccess: putting g result rows in key order (SortByKey) scans the
// keys for their range, then per LSD pass reads them for a histogram
// and runs one §3.4.2 cluster pass on digit bits over the 40-byte rows.
func orderAccess(g float64, passes, digit int, model *costmodel.Model) [2]access {
	return [2]access{
		{Pattern: costmodel.Sweep, Count: g, Width: 8 * float64(1+passes),
			CPU: g * model.M.Cost.WScanBUN / 4 * float64(1+passes)},
		{Pattern: costmodel.Cluster, Count: math.Ceil(g), Width: agg.GroupRowBytes,
			Bits: float64(digit), Passes: float64(passes)},
	}
}

// orderByAccess: a comparison sort of n keys of the given width.
func orderByAccess(n float64, width int, model *costmodel.Model) [1]access {
	lg := math.Log2(n + 2)
	return [1]access{{Pattern: costmodel.Random, Count: n * lg / 4, Width: float64(width),
		Region: n * float64(width), CPU: n * lg * model.M.Cost.WScanBUN / 4}}
}

// priceAll prices descriptions as one list, in order.
func priceAll(model *costmodel.Model, ds ...[]access) costmodel.Breakdown {
	var b costmodel.Breakdown
	for _, d := range ds {
		for _, a := range d {
			b = b.Add(model.Price(a))
		}
	}
	return b
}

// bytesOf is a description's bytes read and written, in whole bytes.
func bytesOf(d ...access) (read, written int64) {
	r, w := costmodel.Bytes(d...)
	return int64(math.Round(r)), int64(math.Round(w))
}

// groupCost prices hash grouping of n tuples into g groups: the feed,
// over more than one morsel the merge of up to g partial rows a morsel
// (one morsel's partial is the result), and the key order over keyBits
// bits, which hash and radix grouping pay alike.
func groupCost(n int, g float64, keyBits int, model *costmodel.Model) costmodel.Breakdown {
	feed := hashFeedAccess(float64(n), g, model)
	var merge [1]access
	if nm := core.MorselsOf(n); nm > 1 {
		merge = mergeAccess(float64(nm)*math.Min(g, float64(n)/float64(nm)), g, model)
	}
	return priceAll(model, feed[:], merge[:]).Add(orderCost(g, keyBits, model))
}

// radixGroupCost prices radix grouping of n tuples into g groups on
// bits bits in passes passes: clustering, the partition fold and the
// key order.
func radixGroupCost(n int, g float64, keyBits, bits, passes int, model *costmodel.Model) costmodel.Breakdown {
	feed := radixFeedAccess(float64(n), bits, passes)
	parts := partitionsAccess(float64(n), g, bits, model)
	return priceAll(model, feed[:], parts[:]).Add(orderCost(g, keyBits, model))
}

// arrayGroupCost prices array grouping of n tuples into g groups over
// a slots-slot key range: the feed, over more than one morsel the merge
// of up to g partial rows a morsel, and the scan that finds the groups
// already in key order.
func arrayGroupCost(n int, g float64, slots int, model *costmodel.Model) costmodel.Breakdown {
	feed := arrayFeedAccess(float64(n), g, float64(slots), model)
	var merge [1]access
	if nm := core.MorselsOf(n); nm > 1 {
		merge = arrayMergeAccess(float64(nm)*math.Min(g, float64(n)/float64(nm)), g, float64(slots), model)
	}
	return priceAll(model, feed[:], merge[:]).Add(orderCost(g, 0, model))
}

// rangeGroupCost prices radix-range grouping of n tuples into g groups:
// clustering on bits high bits in passes passes, the window folds of
// slots slots each, and the scan that finds the groups in key order.
func rangeGroupCost(n int, g float64, slots, bits, passes int, model *costmodel.Model) costmodel.Breakdown {
	feed := radixFeedAccess(float64(n), bits, passes)
	parts := windowsAccess(float64(n), g, slots, bits, model)
	return priceAll(model, feed[:], parts[:]).Add(orderCost(g, 0, model))
}

// orderCost prices the key order of g groups whose keys span keyBits bits.
func orderCost(g float64, keyBits int, model *costmodel.Model) costmodel.Breakdown {
	passes, digit := agg.SortPasses(keyBits)
	d := orderAccess(g, passes, digit, model)
	return model.Price(d[:]...)
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

// arraySlotsMax is the widest key range an array sink takes: its
// 32-byte slots fill at most half of L2, the cache-resident regime of
// §3.2's aggregate table.
func arraySlotsMax(model *costmodel.Model) uint64 {
	return uint64(model.M.L2.Size / 2 / agg.DenseSlotBytes)
}

// windowBitsFor is log2 of the narrowest radix-range window the
// planner prices: the largest power of two whose slots fill at most
// half of L1, so every window fold hits the first-level cache.
func windowBitsFor(model *costmodel.Model) int {
	b := 0
	for (2<<b)*agg.DenseSlotBytes <= model.M.L1.Size/2 {
		b++
	}
	return b
}

// subClamp subtracts a predicted saving from a cost breakdown, clamping
// every component at zero: a pipeline can at best eliminate its
// intermediates, never go negative.
func subClamp(b, saved costmodel.Breakdown) costmodel.Breakdown {
	out := b.Add(saved.Scale(-1))
	return costmodel.Breakdown{CPUNanos: math.Max(out.CPUNanos, 0), L1Misses: math.Max(out.L1Misses, 0),
		L2Misses: math.Max(out.L2Misses, 0), TLBMisses: math.Max(out.TLBMisses, 0)}
}

package main

import (
	"fmt"
	"math/bits"
	"time"

	"monetlite/internal/agg"
	"monetlite/internal/bat"
	"monetlite/internal/core"
	"monetlite/internal/dsm"
	"monetlite/internal/hashtab"
	"monetlite/internal/sel"
	"monetlite/internal/workload"
)

// Layer replays price each layer under the engine from outside: they time
// calls into the layer's public functions, on the workload's own columns
// where the layer works on columns and on workload.JoinInputs for the join
// kernels, and report medians over kernelReps repetitions.

const (
	kernelReps    = 3
	minKernelTime = 2 * time.Millisecond // a repetition repeats short calls up to this
	maxKernelCall = 1000
	joinInputRows = 1 << 20 // the paper's out-of-cache join regime (8 MB per side)
)

// kernelSeconds returns the median seconds per call of run. prep, when set,
// restores run's input before every call and is not timed.
func (tr *tracer) kernelSeconds(name string, parent int, prep, run func()) float64 {
	id := tr.begin(name, parent, 0)
	defer tr.end(id)
	secs := make([]float64, 0, kernelReps)
	for r := 0; r < kernelReps; r++ {
		total, calls := time.Duration(0), 0
		for total < minKernelTime && calls < maxKernelCall {
			if prep != nil {
				prep()
			}
			t0 := time.Now()
			run()
			total += time.Since(t0)
			calls++
		}
		secs = append(secs, total.Seconds()/float64(calls))
	}
	return median(secs)
}

func (e *env) replayLayers(tr *tracer, parent int, m *metricSet, cfg config) error {
	n := e.item.N
	col := func(name string) *dsm.Column {
		c, err := e.item.Column(name)
		if err != nil {
			panic(err) // the Item schema is fixed; a missing column is a harness bug
		}
		return c
	}
	date1, qty, shipmode, price, cust := col("date1"), col("qty"), col("shipmode"), col("price"), col("cust")
	priceVec, ok := price.Vec.(*bat.F64Vec)
	if !ok || shipmode.Enc == nil {
		return fmt.Errorf("item table: price is %T, shipmode encoded=%v", price.Vec, shipmode.Enc != nil)
	}
	code, ok := shipmode.Enc.Code("MAIL")
	if !ok {
		return fmt.Errorf("item table: shipmode has no code for MAIL")
	}
	perRow := func(sec float64, rows int) float64 { return sec * 1e9 / float64(max(rows, 1)) }

	// dsm: select, refilter and gather kernels.
	lay := tr.begin("dsm", parent, 0)
	const dLo, dHi = dateLo + 500, dateLo + 1499 // 40% of the date1 domain
	pos := make([]int32, 0, n)
	sec := tr.kernelSeconds("dsm.select_range", lay, nil, func() { pos = dsm.SelectRangePos(date1, dLo, dHi, 0, n, pos[:0]) })
	m.add("dsm.select_range_ns_per_row", perRow(sec, n), "ns")
	selGBps := float64(n*date1.Width()) / sec / 1e9
	m.add("dsm.select_range_gbps", selGBps, "GB/s")
	codePos := make([]int32, 0, n)
	sec = tr.kernelSeconds("dsm.select_code", lay, nil, func() { codePos = dsm.SelectCodePos(shipmode, code, 0, n, codePos[:0]) })
	m.add("dsm.select_code_ns_per_row", perRow(sec, n), "ns")
	scratch := make([]int32, 0, len(pos))
	refill := func() { scratch = append(scratch[:0], pos...) }
	sec = tr.kernelSeconds("dsm.filter_range", lay, refill, func() { scratch = dsm.FilterRangePos(qty, 10, 29, scratch) })
	m.add("dsm.filter_range_ns_per_row", perRow(sec, len(pos)), "ns")
	sec = tr.kernelSeconds("dsm.filter_code", lay, refill, func() { scratch = dsm.FilterCodePos(shipmode, code, scratch) })
	m.add("dsm.filter_code_ns_per_row", perRow(sec, len(pos)), "ns")
	floats := make([]float64, 0, len(pos))
	sec = tr.kernelSeconds("dsm.gather_dense", lay, nil, func() { floats = dsm.AppendFloatsPos(floats[:0], price, pos) })
	m.add("dsm.gather_dense_ns_per_row", perRow(sec, len(pos)), "ns")
	sparse := dsm.SelectRangePos(date1, dLo, dLo+dateSpan/100-1, 0, n, nil) // 1% of the rows
	sec = tr.kernelSeconds("dsm.gather_sparse", lay, nil, func() { floats = dsm.AppendFloatsPos(floats[:0], price, sparse) })
	m.add("dsm.gather_sparse_ns_per_row", perRow(sec, len(sparse)), "ns")
	m.add("dsm.bytes_per_row", float64(e.item.BUNWidth()), "B")
	m.add("dsm.nsm_bytes_per_row", float64(e.item.Schema.RowWidth()), "B")
	tr.end(lay)

	// sel: the CSS-tree over the unique, ascending order column.
	lay = tr.begin("sel", parent, 0)
	orders := make([]int32, n)
	for i := range e.items {
		orders[i] = e.items[i].Order
	}
	orderCol := &sel.Column{Vals: orders}
	var tree *sel.CSSTree
	sec = tr.kernelSeconds("sel.css_build", lay, nil, func() { tree = sel.BuildCSSTree(nil, orderCol) })
	m.add("sel.css_build_ms", sec*1e3, "ms")
	rng := workload.NewRNG(cfg.seed)
	keys := make([]int32, 4096)
	for i := range keys {
		keys[i] = int32(orderLo + rng.Intn(n))
	}
	found := 0
	sec = tr.kernelSeconds("sel.css_lookup", lay, nil, func() {
		for _, k := range keys {
			found += len(tree.Lookup(nil, k))
		}
	})
	m.add("sel.css_lookup_ns", perRow(sec, len(keys)), "ns")
	span := max(n/100, 1)
	sec = tr.kernelSeconds("sel.css_range", lay, nil, func() {
		found += len(tree.RangeSelect(nil, int32(orderLo+n/3), int32(orderLo+n/3+span-1)))
	})
	m.add("sel.css_range_ns_per_row", perRow(sec, span), "ns")
	tr.end(lay)
	if found == 0 {
		return fmt.Errorf("sel replay: CSS-tree found none of its own keys")
	}

	// core: radix-cluster and the two hash joins on the paper's inputs.
	lay = tr.begin("core", parent, 0)
	jn := max(joinInputRows>>cfg.shrink, 64)
	l, r := workload.JoinInputs(jn, cfg.seed)
	radixBits := min(10, bits.Len(uint(jn))-3)
	const passes = 2
	par := func(w int) core.Options { return core.Options{Parallelism: w} }
	var kerr error
	keep := func(err error) {
		if err != nil && kerr == nil {
			kerr = err
		}
	}
	cluster := func(w int) float64 {
		return tr.kernelSeconds(fmt.Sprintf("core.radix_cluster/%d", w), lay, nil, func() {
			_, err := core.RadixClusterOpts(nil, l, radixBits, passes, nil, par(w))
			keep(err)
		})
	}
	c1, c2 := cluster(1), cluster(workers)
	m.add("core.radix_cluster_ns_per_row", perRow(c2, jn), "ns")
	m.add("core.radix_cluster_gbps", float64(jn*8)/c2/1e9, "GB/s")
	m.add("core.radix_cluster_speedup_x", c1/c2, "x")
	matches := 0
	phash := func(w int) float64 {
		return tr.kernelSeconds(fmt.Sprintf("core.phash_join/%d", w), lay, nil, func() {
			ji, err := core.PartitionedHashJoinOpts(nil, l, r, radixBits, passes, nil, par(w))
			keep(err)
			if err == nil {
				matches = ji.Len()
			}
		})
	}
	p1, p2 := phash(1), phash(workers)
	m.add("core.phash_join_ns_per_row", perRow(p2, jn), "ns")
	simple := tr.kernelSeconds("core.simple_hash_join", lay, nil, func() {
		_, err := core.SimpleHashJoin(nil, l, r, nil)
		keep(err)
	})
	m.add("core.simple_hash_join_ns_per_row", perRow(simple, jn), "ns")
	m.add("core.phash_vs_simple_x", simple/p1, "x") // both serial: the paper's headline ratio
	custKeys := dsm.AppendIntsPos(make([]int64, 0, n), cust, allPositions(n))
	sec = tr.kernelSeconds("core.cluster_kv", lay, nil, func() {
		_, _, _, err := core.RadixClusterKV(custKeys, priceVec.V, radixBits, passes, par(workers))
		keep(err)
	})
	m.add("core.cluster_kv_ns_per_row", perRow(sec, n), "ns")
	tr.end(lay)
	if kerr != nil {
		return fmt.Errorf("core replay: %w", kerr)
	}
	if matches != jn {
		return fmt.Errorf("core replay: partitioned hash-join found %d of %d matches", matches, jn)
	}

	// hashtab: build once per call, probe with every key of the other side.
	lay = tr.begin("hashtab", parent, 0)
	large := hashtab.New(jn, nil)
	sec = tr.kernelSeconds("hashtab.build", lay, nil, func() { large.Build(nil, r) })
	m.add("hashtab.build_ns_per_row", perRow(sec, jn), "ns")
	hits := 0
	emit := func(int32) { hits++ }
	sec = tr.kernelSeconds("hashtab.probe_large", lay, nil, func() {
		for i := range l.BUNs {
			large.Probe(nil, r, l.BUNs[i].Tail, emit)
		}
	})
	m.add("hashtab.probe_large_ns", perRow(sec, jn), "ns")
	sl, sr := workload.JoinInputs(partSmallRows, cfg.seed+1)
	small := hashtab.New(partSmallRows, nil)
	small.Build(nil, sr)
	sec = tr.kernelSeconds("hashtab.probe_small", lay, nil, func() {
		for i := 0; i < jn; i++ {
			small.Probe(nil, sr, sl.BUNs[i%partSmallRows].Tail, emit)
		}
	})
	m.add("hashtab.probe_small_ns", perRow(sec, jn), "ns")
	tr.end(lay)
	if hits == 0 {
		return fmt.Errorf("hashtab replay: no probe hit")
	}

	// agg: the three grouping algorithms on the workload's key columns.
	lay = tr.begin("agg", parent, 0)
	group := func(name string, f func() (*agg.GroupResult, error)) float64 {
		return tr.kernelSeconds(name, lay, nil, func() {
			_, err := f()
			keep(err)
		})
	}
	sec = group("agg.hash_lowcard", func() (*agg.GroupResult, error) { return agg.HashGroup(nil, shipmode.Vec, priceVec) })
	m.add("agg.hash_lowcard_ns_per_row", perRow(sec, n), "ns")
	hashSec := group("agg.hash_highcard", func() (*agg.GroupResult, error) { return agg.HashGroup(nil, cust.Vec, priceVec) })
	m.add("agg.hash_highcard_ns_per_row", perRow(hashSec, n), "ns")
	radixSec := group("agg.radix_group", func() (*agg.GroupResult, error) {
		return agg.RadixGroup(nil, cust.Vec, priceVec, radixBits, passes)
	})
	m.add("agg.radix_group_ns_per_row", perRow(radixSec, n), "ns")
	sec = group("agg.sort_group", func() (*agg.GroupResult, error) { return agg.SortGroup(nil, cust.Vec, priceVec) })
	m.add("agg.sort_group_ns_per_row", perRow(sec, n), "ns")
	m.add("agg.radix_vs_hash_x", hashSec/radixSec, "x")
	tr.end(lay)
	if kerr != nil {
		return fmt.Errorf("agg replay: %w", kerr)
	}

	// The roofline: the streaming select against the measured bandwidth.
	if bw, ok := m.byName["host.seq_read_gbps_1"]; ok && bw.Value > 0 {
		m.add("dsm.select_range_bw_share", selGBps/bw.Value, "ratio")
	}
	return nil
}

func allPositions(n int) []int32 {
	pos := make([]int32, n)
	for i := range pos {
		pos[i] = int32(i)
	}
	return pos
}

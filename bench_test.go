// Native wall-clock benchmarks, one per paper figure plus the §3.2
// ablations and design-choice ablations. These complement the
// simulated reproductions (cmd/figures): the simulator gives exact
// 1999-hardware miss counts; the benches show that the paper's
// orderings still hold natively on the host CPU.
package monetlite

import (
	"fmt"
	"testing"

	"monetlite/internal/agg"
	"monetlite/internal/bat"
	"monetlite/internal/core"
	"monetlite/internal/scan"
	"monetlite/internal/sel"
	"monetlite/internal/workload"
)

// benchCard is the operand cardinality of the native join benches:
// large enough (8 MB/operand) to be out of L2 on most hosts.
const benchCard = 1 << 20

// BenchmarkFig03ScanStride scans a buffer natively reading one byte
// per record at the Figure-3 strides: native time per element grows
// with the stride on the host CPU just as in the paper.
func BenchmarkFig03ScanStride(b *testing.B) {
	for _, stride := range []int{1, 8, 32, 128, 256} {
		b.Run(fmt.Sprintf("stride=%d", stride), func(b *testing.B) {
			buf := make([]byte, scan.Iterations*stride)
			var sink byte
			b.SetBytes(int64(scan.Iterations))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < len(buf); j += stride {
					sink += buf[j]
				}
			}
			_ = sink
		})
	}
}

// BenchmarkFig09RadixCluster clusters 1M tuples at the Figure-9
// operating points: around the TLB knee (6 bits), the L1-line knee
// (10), and deep clusterings where multi-pass wins.
func BenchmarkFig09RadixCluster(b *testing.B) {
	in := workload.UniquePairs(benchCard, 1)
	for _, cfg := range []struct{ bits, passes int }{
		{4, 1}, {6, 1}, {8, 1}, {8, 2}, {12, 1}, {12, 2}, {16, 2}, {16, 3}, {20, 4},
	} {
		b.Run(fmt.Sprintf("B=%d/P=%d", cfg.bits, cfg.passes), func(b *testing.B) {
			b.SetBytes(int64(in.Bytes()))
			for i := 0; i < b.N; i++ {
				if _, err := core.RadixCluster(nil, in, cfg.bits, cfg.passes, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig10RadixJoin runs the isolated radix-join phase on
// pre-clustered inputs across cluster sizes (the Figure-10 sweep).
func BenchmarkFig10RadixJoin(b *testing.B) {
	l, r := workload.JoinInputs(benchCard, 2)
	for _, bits := range []int{14, 16, 18, 20} {
		passes := core.OptimalPasses(bits, Origin2000())
		lc, err := core.RadixCluster(nil, l, bits, passes, nil)
		if err != nil {
			b.Fatal(err)
		}
		rc, err := core.RadixCluster(nil, r, bits, passes, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("B=%d(cluster=%d)", bits, benchCard>>bits), func(b *testing.B) {
			b.SetBytes(int64(l.Bytes() + r.Bytes()))
			for i := 0; i < b.N; i++ {
				res, err := core.RadixJoinClustered(nil, lc, rc)
				if err != nil {
					b.Fatal(err)
				}
				if res.Len() != benchCard {
					b.Fatalf("bad result size %d", res.Len())
				}
			}
		})
	}
}

// BenchmarkFig11PartitionedHash runs the isolated hash-join phase on
// pre-clustered inputs across cluster sizes (the Figure-11 sweep),
// including B=0: the non-partitioned degenerate.
func BenchmarkFig11PartitionedHash(b *testing.B) {
	l, r := workload.JoinInputs(benchCard, 3)
	for _, bits := range []int{0, 4, 8, 12, 16} {
		passes := 1
		if bits > 0 {
			passes = core.OptimalPasses(bits, Origin2000())
		}
		lc, err := core.RadixCluster(nil, l, bits, passes, nil)
		if err != nil {
			b.Fatal(err)
		}
		rc, err := core.RadixCluster(nil, r, bits, passes, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("B=%d", bits), func(b *testing.B) {
			b.SetBytes(int64(l.Bytes() + r.Bytes()))
			for i := 0; i < b.N; i++ {
				res, err := core.PartitionedHashJoinClustered(nil, lc, rc, nil)
				if err != nil {
					b.Fatal(err)
				}
				if res.Len() != benchCard {
					b.Fatalf("bad result size %d", res.Len())
				}
			}
		})
	}
}

// BenchmarkFig12Overall measures cluster+join end to end for the two
// radix algorithms at their strategy operating points.
func BenchmarkFig12Overall(b *testing.B) {
	l, r := workload.JoinInputs(benchCard, 4)
	m := Origin2000()
	for _, s := range []core.Strategy{core.PhashL2, core.PhashTLB, core.PhashL1, core.PhashMin, core.Radix8, core.RadixMin} {
		plan := core.NewPlan(s, benchCard, m)
		b.Run(plan.String(), func(b *testing.B) {
			b.SetBytes(int64(l.Bytes() + r.Bytes()))
			for i := 0; i < b.N; i++ {
				res, err := core.Execute(nil, l, r, plan, nil)
				if err != nil {
					b.Fatal(err)
				}
				if res.Len() != benchCard {
					b.Fatalf("bad result size %d", res.Len())
				}
			}
		})
	}
}

// BenchmarkFig13Comparison runs every strategy (baselines included)
// end to end at 1M tuples: the Figure-13 ordering, natively.
func BenchmarkFig13Comparison(b *testing.B) {
	l, r := workload.JoinInputs(benchCard, 5)
	m := Origin2000()
	for _, s := range core.Strategies() {
		plan := core.NewPlan(s, benchCard, m)
		b.Run(s.String(), func(b *testing.B) {
			b.SetBytes(int64(l.Bytes() + r.Bytes()))
			for i := 0; i < b.N; i++ {
				res, err := core.Execute(nil, l, r, plan, nil)
				if err != nil {
					b.Fatal(err)
				}
				if res.Len() != benchCard {
					b.Fatalf("bad result size %d", res.Len())
				}
			}
		})
	}
}

// parBenchCard is the operand cardinality of the parallel-engine
// benches: 4M tuples (32 MB/operand), far out of cache, so the
// serial/parallel comparison measures the memory-bound join itself.
// Under -short (smoke runs) the benches shrink to 256K tuples.
func parBenchCard() int {
	if testing.Short() {
		return 1 << 18
	}
	return 4 << 20
}

// BenchmarkParallelJoin compares the serial and the parallel execution
// engine end to end (cluster + join) at 4M tuples, for the two radix
// algorithm families. The parallel result is checked byte-identical to
// the serial result before timing starts.
func BenchmarkParallelJoin(b *testing.B) {
	l, r := workload.JoinInputs(parBenchCard(), 9)
	m := Origin2000()
	for _, s := range []core.Strategy{core.PhashMin, core.Radix8} {
		plan := core.NewPlan(s, parBenchCard(), m)
		want, err := core.ExecuteOpts(nil, l, r, plan, nil, core.Serial())
		if err != nil {
			b.Fatal(err)
		}
		got, err := core.ExecuteOpts(nil, l, r, plan, nil, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if got.Len() != want.Len() {
			b.Fatalf("%v: parallel result size %d != serial %d", plan, got.Len(), want.Len())
		}
		for i := range want.BUNs {
			if got.BUNs[i] != want.BUNs[i] {
				b.Fatalf("%v: parallel BUN %d = %+v, want %+v", plan, i, got.BUNs[i], want.BUNs[i])
			}
		}
		for _, eng := range []struct {
			name string
			opt  core.Options
		}{
			{"serial", core.Serial()},
			{"parallel", core.Options{}},
		} {
			b.Run(fmt.Sprintf("%s/%s", plan, eng.name), func(b *testing.B) {
				b.SetBytes(int64(l.Bytes() + r.Bytes()))
				for i := 0; i < b.N; i++ {
					res, err := core.ExecuteOpts(nil, l, r, plan, nil, eng.opt)
					if err != nil {
						b.Fatal(err)
					}
					if res.Len() != parBenchCard() {
						b.Fatalf("bad result size %d", res.Len())
					}
				}
			})
		}
	}
}

// BenchmarkParallelQuery runs a select → group-aggregate plan through
// the engine end to end, serial vs morsel-parallel: the
// whole-operator-tree counterpart of BenchmarkParallelJoin. Run with
// -benchmem for B/op. The parallel result is checked byte-identical to
// the serial result before timing starts.
func BenchmarkParallelQuery(b *testing.B) {
	items, err := ItemTable(parBenchCard(), 42)
	if err != nil {
		b.Fatal(err)
	}
	build := func() *QueryBuilder {
		return Query(items).
			WhereRange("date1", 8500, 9499).
			GroupBy("shipmode", Mul(Col("price"), Sub(Const(1), Col("discnt"))))
	}
	want, err := build().Parallel(1).Run()
	if err != nil {
		b.Fatal(err)
	}
	got, err := build().Parallel(0).Run()
	if err != nil {
		b.Fatal(err)
	}
	sums, _ := got.Floats("sum")
	wsums, _ := want.Floats("sum")
	if got.N() != want.N() {
		b.Fatalf("%d groups, serial %d", got.N(), want.N())
	}
	for i := range wsums {
		if sums[i] != wsums[i] {
			b.Fatalf("group %d: sum %v != serial %v", i, sums[i], wsums[i])
		}
	}
	for _, eng := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"parallel", 0},
	} {
		b.Run(eng.name, func(b *testing.B) {
			b.SetBytes(int64(parBenchCard()) * 12) // date + price + discnt bytes scanned
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := build().Parallel(eng.workers).Run()
				if err != nil {
					b.Fatal(err)
				}
				if res.N() != want.N() {
					b.Fatalf("bad group count %d", res.N())
				}
			}
		})
	}
}

// BenchmarkParallelRadixCluster isolates the clustering phase on the
// parallel engine: 4M tuples on the Radix8 operating point (multi-pass,
// the per-worker histogram → prefix-sum → scatter scheme).
func BenchmarkParallelRadixCluster(b *testing.B) {
	in := workload.UniquePairs(parBenchCard(), 10)
	m := Origin2000()
	bits := core.StrategyBits(core.Radix8, parBenchCard(), m)
	passes := core.OptimalPasses(bits, m)
	for _, eng := range []struct {
		name string
		opt  core.Options
	}{
		{"serial", core.Serial()},
		{"parallel", core.Options{}},
	} {
		b.Run(fmt.Sprintf("B=%d/P=%d/%s", bits, passes, eng.name), func(b *testing.B) {
			b.SetBytes(int64(in.Bytes()))
			for i := 0; i < b.N; i++ {
				if _, err := core.RadixClusterOpts(nil, in, bits, passes, nil, eng.opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSelect compares the §3.2 selection access paths
// natively: point lookups on a 1M-value column.
func BenchmarkAblationSelect(b *testing.B) {
	rng := workload.NewRNG(6)
	vals := make([]int32, benchCard)
	for i := range vals {
		vals[i] = int32(rng.Intn(1 << 28))
	}
	col := sel.NewColumn(vals)
	hx := sel.BuildHashIndex(nil, col)
	tt := sel.BuildTTree(nil, col)
	ct := sel.BuildCSSTree(nil, col)
	keys := make([]int32, 1024)
	for i := range keys {
		keys[i] = vals[rng.Intn(len(vals))]
	}
	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if got := sel.ScanSelect(nil, col, keys[i%len(keys)], keys[i%len(keys)]); len(got) == 0 {
				b.Fatal("missing key")
			}
		}
	})
	b.Run("hash", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if got := hx.Lookup(nil, keys[i%len(keys)]); len(got) == 0 {
				b.Fatal("missing key")
			}
		}
	})
	b.Run("ttree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if got := tt.Lookup(nil, keys[i%len(keys)]); len(got) == 0 {
				b.Fatal("missing key")
			}
		}
	})
	b.Run("csstree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if got := ct.Lookup(nil, keys[i%len(keys)]); len(got) == 0 {
				b.Fatal("missing key")
			}
		}
	})
}

// BenchmarkAblationGrouping compares hash-grouping and sort-grouping
// natively at cache-resident and cache-busting group counts.
func BenchmarkAblationGrouping(b *testing.B) {
	const n = 1 << 20
	for _, groups := range []int{8, 65536} {
		rng := workload.NewRNG(uint64(groups))
		keys := make([]int32, n)
		vals := make([]float64, n)
		for i := range keys {
			keys[i] = int32(rng.Intn(groups))
			vals[i] = float64(i)
		}
		kv, vv := bat.NewI32(keys), bat.NewF64(vals)
		b.Run(fmt.Sprintf("hash/groups=%d", groups), func(b *testing.B) {
			b.SetBytes(n * 12)
			for i := 0; i < b.N; i++ {
				if _, err := agg.HashGroup(nil, kv, vv); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("sort/groups=%d", groups), func(b *testing.B) {
			b.SetBytes(n * 12)
			for i := 0; i < b.N; i++ {
				if _, err := agg.SortGroup(nil, kv, vv); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationBitsPerPass verifies the §3.4.2 design choice
// natively: clustering 16 bits in 1–4 passes (even splits).
func BenchmarkAblationBitsPerPass(b *testing.B) {
	in := workload.UniquePairs(benchCard, 8)
	for passes := 1; passes <= 4; passes++ {
		b.Run(fmt.Sprintf("B=16/P=%d", passes), func(b *testing.B) {
			b.SetBytes(int64(in.Bytes()))
			for i := 0; i < b.N; i++ {
				if _, err := core.RadixCluster(nil, in, 16, passes, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationEncodingWidth verifies the §3.1 byte-encoding
// choice natively: aggregating a column stored at 1, 2, 4 and 8
// bytes per value.
func BenchmarkAblationEncodingWidth(b *testing.B) {
	n := 1 << 22 // 4M values per width
	if testing.Short() {
		n = 1 << 19
	}
	v8 := make([]int8, n)
	v16 := make([]int16, n)
	v32 := make([]int32, n)
	v64 := make([]int64, n)
	for i := 0; i < n; i++ {
		v8[i] = int8(i)
		v16[i] = int16(i)
		v32[i] = int32(i)
		v64[i] = int64(i)
	}
	b.Run("width=1", func(b *testing.B) {
		b.SetBytes(int64(n))
		var sink int64
		for i := 0; i < b.N; i++ {
			for _, v := range v8 {
				sink += int64(v)
			}
		}
		_ = sink
	})
	b.Run("width=2", func(b *testing.B) {
		b.SetBytes(int64(2 * n))
		var sink int64
		for i := 0; i < b.N; i++ {
			for _, v := range v16 {
				sink += int64(v)
			}
		}
		_ = sink
	})
	b.Run("width=4", func(b *testing.B) {
		b.SetBytes(int64(4 * n))
		var sink int64
		for i := 0; i < b.N; i++ {
			for _, v := range v32 {
				sink += int64(v)
			}
		}
		_ = sink
	})
	b.Run("width=8", func(b *testing.B) {
		b.SetBytes(int64(8 * n))
		var sink int64
		for i := 0; i < b.N; i++ {
			for _, v := range v64 {
				sink += int64(v)
			}
		}
		_ = sink
	})
}

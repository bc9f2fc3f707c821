// Native wall-clock benchmarks of the parallel execution engine:
// serial vs parallel for the join, the clustering phase and a whole
// select → group-aggregate query, each checked byte-identical to its
// serial run where it has a result to compare. Per-figure kernel
// timings live in mlbench's layer metrics (cmd/mlbench) and the
// simulated reproductions in cmd/figures.
package monetlite

import (
	"fmt"
	"testing"

	"monetlite/internal/core"
	"monetlite/internal/workload"
)

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

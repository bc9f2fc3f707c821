package monetlite

import (
	"runtime"
	"testing"
)

// TestProfileOverhead is the zero-cost-when-disabled gate CI runs on
// every push, on the canned 1M-row Q1 (select → group-aggregate): with
// profiling off, the pipelined hot path must allocate exactly what it
// allocated before the profiling hooks existed. Allocation on this path is deterministic (fixed
// chunk/arena sizes per run), so two disabled measurements must agree
// to well under a percent — any per-morsel or per-vector allocation
// smuggled into a hook would show up as a stable offset instead. The
// structural half of the contract (the disabled hooks themselves
// allocate nothing) is pinned exactly by the engine's
// TestProfileHooksDisabledZeroAlloc.
func TestProfileOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-row allocation measurement; skipped in -short")
	}
	if raceEnabled {
		t.Skip("allocation measurement; skipped under the race detector")
	}
	const rows = 1 << 20
	items, err := ItemTable(rows, 42)
	if err != nil {
		t.Fatal(err)
	}
	build := func(analyze bool) func() {
		return func() {
			res, err := Query(items).
				WhereRange("date1", 8500, 9499).
				GroupBy("shipmode", Mul(Col("price"), Sub(Const(1), Col("discnt")))).
				Analyze(analyze).
				Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.N() == 0 {
				t.Fatal("empty result")
			}
			if analyze != (res.Profile != nil) {
				t.Fatalf("analyze=%v but Profile=%v", analyze, res.Profile != nil)
			}
		}
	}
	measure := func(f func()) uint64 {
		const runs = 3
		f() // warm up (plan caches, arena growth patterns)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	off1 := measure(build(false))
	on := measure(build(true))
	off2 := measure(build(false))
	t.Logf("B/op on 1M-row Q1: disabled %d and %d, analyzed %d", off1, off2, on)
	lo, hi := off1, off2
	if lo > hi {
		lo, hi = hi, lo
	}
	// 0.5% covers runtime bookkeeping noise; a real per-morsel (4
	// morsels) or per-vector (hundreds) hook allocation is far larger.
	if hi-lo > hi/200 {
		t.Errorf("disabled-path B/op drifts: %d vs %d", off1, off2)
	}
	if on <= off1 {
		t.Errorf("analyzed run allocates %d B/op, disabled %d — profiling collected nothing?", on, off1)
	}
}

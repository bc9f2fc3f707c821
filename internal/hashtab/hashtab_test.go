package hashtab

import (
	"testing"
	"testing/quick"

	"monetlite/internal/bat"
	"monetlite/internal/memsim"
	"monetlite/internal/workload"
)

func pairsOf(tails ...uint32) *bat.Pairs {
	p := bat.NewPairs(len(tails))
	for i, v := range tails {
		p.BUNs[i] = bat.Pair{Head: bat.Oid(i), Tail: v}
	}
	return p
}

func TestBucketsFor(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 4: 1, 5: 2, 16: 4, 17: 8, 1000: 256}
	for n, want := range cases {
		if got := BucketsFor(n); got != want {
			t.Errorf("BucketsFor(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestBuildAndProbeExact(t *testing.T) {
	build := pairsOf(5, 17, 5, 99, 0)
	tab := New(build.Len(), Identity)
	tab.Build(nil, build)
	var hits []int32
	tab.Probe(nil, build, 5, func(pos int32) { hits = append(hits, pos) })
	if len(hits) != 2 {
		t.Fatalf("probe(5) found %d, want 2", len(hits))
	}
	for _, h := range hits {
		if build.BUNs[h].Tail != 5 {
			t.Errorf("hit %d has tail %d", h, build.BUNs[h].Tail)
		}
	}
	var none []int32
	tab.Probe(nil, build, 1234, func(pos int32) { none = append(none, pos) })
	if len(none) != 0 {
		t.Errorf("probe(1234) found %d, want 0", len(none))
	}
}

func TestProbeMatchesMapSemantics(t *testing.T) {
	build := workload.UniquePairs(5000, 3)
	tab := New(build.Len(), Mult)
	tab.Build(nil, build)
	want := make(map[uint32]int32, build.Len())
	for i, b := range build.BUNs {
		want[b.Tail] = int32(i)
	}
	for _, b := range build.BUNs {
		found := false
		tab.Probe(nil, build, b.Tail, func(pos int32) {
			if pos == want[b.Tail] {
				found = true
			}
		})
		if !found {
			t.Fatalf("key %d not found", b.Tail)
		}
	}
}

func TestTableReuseAcrossBuilds(t *testing.T) {
	tab := New(100, Identity)
	a := pairsOf(1, 2, 3)
	tab.Build(nil, a)
	if tab.Buckets() != ChainTarget {
		t.Errorf("native buckets for 3 tuples = %d, want %d", tab.Buckets(), ChainTarget)
	}
	// Rebuild with different data: old entries must be gone.
	b := pairsOf(7, 8)
	tab.Build(nil, b)
	count := 0
	tab.Probe(nil, b, 1, func(int32) { count++ })
	if count != 0 {
		t.Error("stale entry survived rebuild")
	}
	tab.Probe(nil, b, 7, func(int32) { count++ })
	if count != 1 {
		t.Error("fresh entry not found after rebuild")
	}
	// A simulated rebuild of the same table takes the paper's geometry,
	// and a native one after it the native geometry again.
	sim := memsim.MustNew(memsim.Origin2000())
	a.Bind(sim)
	tab.Build(sim, a)
	if tab.Buckets() != 1 {
		t.Errorf("simulated buckets for 3 tuples = %d, want 1", tab.Buckets())
	}
	tab.Build(nil, b)
	if tab.Buckets() != ChainTarget {
		t.Errorf("native buckets for 2 tuples after a simulated build = %d, want %d", tab.Buckets(), ChainTarget)
	}
	count = 0
	tab.Probe(nil, b, 1, func(int32) { count++ })
	tab.Probe(nil, b, 8, func(int32) { count++ })
	if count != 1 {
		t.Errorf("native rebuild after a simulated one: %d hits for keys 1 and 8, want 1", count)
	}
}

// TestBuildBeyondCapacityGrows: a build larger than the allocated
// capacity (an under-estimated cardinality on skewed data) must grow
// the table and keep probing correctly, not crash.
func TestBuildBeyondCapacityGrows(t *testing.T) {
	tab := New(2, Identity)
	build := pairsOf(1, 2, 3, 4, 5, 6, 7, 8, 9)
	tab.Build(nil, build)
	if tab.Cap() < build.Len() {
		t.Fatalf("Cap = %d after building %d tuples", tab.Cap(), build.Len())
	}
	for _, bun := range build.BUNs {
		hits := 0
		tab.Probe(nil, build, bun.Tail, func(pos int32) {
			if build.BUNs[pos].Tail == bun.Tail {
				hits++
			}
		})
		if hits != 1 {
			t.Errorf("key %d: %d probe hits after grow, want 1", bun.Tail, hits)
		}
	}
	// Growing an instrumented table must re-allocate simulated space
	// and keep mirroring accesses.
	sim := memsim.MustNew(memsim.Origin2000())
	small := workload.UniquePairs(8, 3)
	big := workload.UniquePairs(64, 4)
	small.Bind(sim)
	big.Bind(sim)
	itab := New(small.Len(), Identity)
	itab.Build(sim, small)
	before := sim.Stats().Accesses
	itab.Build(sim, big)
	if itab.Cap() < big.Len() {
		t.Fatalf("instrumented Cap = %d after building %d tuples", itab.Cap(), big.Len())
	}
	if sim.Stats().Accesses <= before {
		t.Error("instrumented rebuild after grow did no simulated accesses")
	}
}

// meanProbeWalk is the mean chain length a probe for each key of build
// walks in tab.
func meanProbeWalk(tab *Table, build *bat.Pairs) float64 {
	total := 0
	for _, b := range build.BUNs {
		total += tab.ChainLen(b.Tail)
	}
	return float64(total) / float64(build.Len())
}

// TestMeanChainLength: the simulated table chains ≈ChainTarget tuples
// a bucket, the native one ≈1. A probe for a present key walks its own
// entry plus the others of its bucket.
func TestMeanChainLength(t *testing.T) {
	build := workload.UniquePairs(4096, 9)
	tab := New(build.Len(), Identity)
	tab.Build(nil, build)
	// Native design: one tuple a bucket, so a probe walks its own
	// entry and, on average, one other; at most twice that beyond its
	// own.
	if mean := meanProbeWalk(tab, build); mean < 1 || mean > 1+2*1 {
		t.Errorf("native mean chain length %.2f, want ≈2", mean)
	}
	sim := memsim.MustNew(memsim.Origin2000())
	sb := build.Clone()
	sb.Bind(sim)
	tab.Build(sim, sb)
	// Simulated design target is ≈4 tuples per bucket (ChainTarget).
	if mean := meanProbeWalk(tab, sb); mean < 1 || mean > 2*ChainTarget {
		t.Errorf("simulated mean chain length %.2f, want ≈%d", mean, ChainTarget)
	}
}

func TestBytesAccounting(t *testing.T) {
	build := pairsOf(make([]uint32, 1000)...)
	tab := New(1000, Identity)
	tab.Build(nil, build)
	// Native heads: 4×256 = 1024 buckets ×4B; chains: 1000 ×4B.
	if got := tab.Bytes(); got != 4*(1024+1000) {
		t.Errorf("native Bytes = %d", got)
	}
	sim := memsim.MustNew(memsim.Origin2000())
	build.Bind(sim)
	tab.Build(sim, build)
	// Simulated heads: 256 buckets ×4B; chains: 1000 ×4B.
	if got := tab.Bytes(); got != 4*(256+1000) {
		t.Errorf("simulated Bytes = %d", got)
	}
}

// TestBindReservesSimulatedGeometry: a table's simulated regions are
// the paper's BucketsFor(cap) heads and cap chain entries, however
// many heads the native geometry keeps.
func TestBindReservesSimulatedGeometry(t *testing.T) {
	const n = 1 << 14
	sim := memsim.MustNew(memsim.Origin2000())
	tab := New(n, Identity)
	tab.Bind(sim)
	if got, want := tab.nextBase-tab.headBase, uint64(4*BucketsFor(n)); got != want {
		t.Errorf("simulated heads take %d bytes, want %d", got, want)
	}
	if got, want := sim.Alloc(0)-tab.nextBase, uint64(4*n); got != want {
		t.Errorf("simulated chains take %d bytes, want %d", got, want)
	}
}

func TestInstrumentedBuildProbeCounts(t *testing.T) {
	sim := memsim.MustNew(memsim.Origin2000())
	build := workload.UniquePairs(1000, 4)
	build.Bind(sim)
	tab := New(build.Len(), Identity)
	tab.Build(sim, build)
	st := sim.Stats()
	if st.Accesses == 0 {
		t.Fatal("instrumented build did no simulated accesses")
	}
	// Build: 256 head-init writes + 4 accesses per tuple.
	wantBuild := uint64(256 + 4*1000)
	if st.Accesses != wantBuild {
		t.Errorf("build accesses = %d, want %d", st.Accesses, wantBuild)
	}
	before := st
	hits := 0
	for _, b := range build.BUNs[:100] {
		tab.Probe(sim, build, b.Tail, func(int32) { hits++ })
	}
	if hits != 100 {
		t.Fatalf("hits = %d", hits)
	}
	d := sim.Stats().Sub(before)
	// Each probe: 1 head read + per chain entry (tuple read + next read).
	if d.Accesses < 300 { // ≥ 3 accesses per probe
		t.Errorf("probe accesses = %d, suspiciously few", d.Accesses)
	}
}

func TestShiftedTableSpreadsClusterKeys(t *testing.T) {
	// After radix-clustering on B low bits, all keys in one cluster
	// share those bits. A shifted table must still spread them; an
	// unshifted one would chain them all into one bucket.
	// Shared bits must cover the bucket bits (1024 tuples → 1024 native
	// buckets → 10 bucket bits; 256 simulated ones → 8) for the
	// unshifted table to degenerate in both geometries.
	const b = 10
	n := 1024
	cluster := bat.NewPairs(n)
	rng := workload.NewRNG(9)
	for i := 0; i < n; i++ {
		// Keys with identical low 10 bits (cluster 13), random above.
		cluster.BUNs[i] = bat.Pair{Head: bat.Oid(i), Tail: rng.Uint32()<<b | 13}
	}
	for _, geo := range []struct {
		name  string
		sim   *memsim.Sim
		chain int // design mean chain
	}{{"native", nil, 1}, {"simulated", memsim.MustNew(memsim.Origin2000()), ChainTarget}} {
		c := cluster.Clone()
		c.Bind(geo.sim)
		shifted := NewShifted(n, b, Identity)
		shifted.Build(geo.sim, c)
		unshifted := New(n, Identity)
		unshifted.Build(geo.sim, c)
		if got := unshifted.ChainLen(c.BUNs[0].Tail); got != n {
			t.Fatalf("%s: unshifted chain = %d, expected degenerate %d", geo.name, got, n)
		}
		if got := shifted.ChainLen(c.BUNs[0].Tail); got > 8*geo.chain {
			t.Errorf("%s: shifted chain = %d, want ≈%d", geo.name, got, geo.chain)
		}
		// Shifted probe still finds exactly its keys.
		for i, bun := range c.BUNs[:64] {
			found := false
			shifted.Probe(nil, c, bun.Tail, func(pos int32) {
				if int(pos) == i {
					found = true
				}
			})
			if !found {
				t.Fatalf("%s: key of tuple %d not found in shifted table", geo.name, i)
			}
		}
	}
}

func TestNewShiftedValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid shift accepted")
		}
	}()
	NewShifted(4, 32, nil)
}

func TestHashFunctions(t *testing.T) {
	var none Hash
	if none.Mul() != 1 || Identity.Mul() != 1 {
		t.Error("identity broken")
	}
	if Mult.Mul() != 2654435761 || 1*Mult.Mul() == 2*Mult.Mul() {
		t.Error("mult broken")
	}
}

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative capacity accepted")
		}
	}()
	New(-1, nil)
}

// Property: probing every built key finds exactly its own position
// among the hits (unique keys).
func TestProbeFindsAllProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw)%500 + 1
		build := workload.UniquePairs(n, seed)
		tab := New(n, Identity)
		tab.Build(nil, build)
		for i, b := range build.BUNs {
			ok := false
			tab.Probe(nil, build, b.Tail, func(pos int32) {
				if int(pos) == i {
					ok = true
				}
			})
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestProbeVecMatchesProbe: ProbeVec over duplicate-heavy builds, cut
// into outputs of every size from one pair up, emits exactly the
// (tag, position) pairs of one Probe per key in the same order, and
// mirrors exactly the same simulated accesses.
func TestProbeVecMatchesProbe(t *testing.T) {
	rng := workload.NewRNG(11)
	for round := 0; round < 40; round++ {
		nb, domain := rng.Intn(300), 1+rng.Intn(64)
		tails := make([]uint32, nb)
		for i := range tails {
			tails[i] = uint32(rng.Intn(domain))
		}
		keys := make([]uint32, rng.Intn(200))
		tags := make([]int32, len(keys))
		for i := range keys {
			keys[i], tags[i] = uint32(rng.Intn(domain+8)), int32(1000+i)
		}
		// A BAT keeps the simulated addresses of the first sim it meets:
		// each sim gets its own copy.
		var sims [2]*memsim.Sim
		var tabs [2]*Table
		var builds [2]*bat.Pairs
		for i := range sims {
			sims[i], builds[i] = memsim.MustNew(memsim.Origin2000()), pairsOf(tails...)
			builds[i].Bind(sims[i])
			tabs[i] = New(nb, Identity)
			tabs[i].Build(sims[i], builds[i])
		}
		var want [][2]int32
		for k, key := range keys {
			tabs[0].Probe(sims[0], builds[0], key, func(pos int32) { want = append(want, [2]int32{tags[k], pos}) })
		}
		got := probeAll(sims[1], tabs[1], builds[1], keys, tags, 1+rng.Intn(8))
		if len(got) != len(want) {
			t.Fatalf("round %d: ProbeVec emitted %d pairs, Probe %d", round, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d pair %d: ProbeVec %v, Probe %v", round, i, got[i], want[i])
			}
		}
		if a, b := sims[0].Stats(), sims[1].Stats(); a != b {
			t.Fatalf("round %d: simulated accesses differ:\nProbe    %+v\nProbeVec %+v", round, a, b)
		}
	}
}

// TestProbeVecAllocationFree: the vector probe allocates nothing.
func TestProbeVecAllocationFree(t *testing.T) {
	build := workload.UniquePairs(2000, 5)
	tab := New(build.Len(), Identity)
	tab.Build(nil, build)
	keys, tags := make([]uint32, 1024), make([]int32, 1024)
	for i := range keys {
		keys[i], tags[i] = build.BUNs[i].Tail, int32(i)
	}
	outTag, outPos := make([]int32, 256), make([]int32, 256)
	allocs := testing.AllocsPerRun(20, func() {
		var c Cursor
		for c.Key < len(keys) {
			tab.ProbeVec(nil, build, keys, tags, &c, outTag, outPos)
		}
	})
	if allocs != 0 {
		t.Errorf("ProbeVec allocates %.1f objects per vector", allocs)
	}
}

// BenchmarkProbeVec times the native vector probe of J1's shape: 2^20
// outer keys, each a hit drawn uniformly from a 2000-row inner, probed
// in vectors of 1024 keys through Identity, over a dense inner (keys
// 0..1999, like part.id) and a random-unique one. -short probes 2^16
// keys.
func BenchmarkProbeVec(b *testing.B) {
	const vec = 1024
	probes := 1 << 20
	if testing.Short() {
		probes = 1 << 16
	}
	for _, in := range []struct {
		name  string
		build *bat.Pairs
	}{{"dense", workload.DensePairs(2000, 3)}, {"unique", workload.UniquePairs(2000, 3)}} {
		b.Run(in.name, func(b *testing.B) {
			tab := New(in.build.Len(), Identity)
			tab.Build(nil, in.build)
			rng := workload.NewRNG(5)
			keys, tags := make([]uint32, probes), make([]int32, vec)
			for i := range keys {
				keys[i] = in.build.BUNs[rng.Intn(in.build.Len())].Tail
			}
			for i := range tags {
				tags[i] = int32(i)
			}
			outTag, outPos := make([]int32, vec), make([]int32, vec)
			b.ReportAllocs()
			matches := 0
			for b.Loop() {
				matches = 0
				for lo := 0; lo < probes; lo += vec {
					var c Cursor
					for c.Key < vec {
						matches += tab.ProbeVec(nil, in.build, keys[lo:lo+vec], tags, &c, outTag, outPos)
					}
				}
			}
			if matches != probes {
				b.Fatalf("%d matches for %d probes", matches, probes)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(probes), "ns/probe")
		})
	}
}

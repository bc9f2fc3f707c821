package core

import (
	"encoding/binary"
	"slices"
	"testing"

	"monetlite/internal/bat"
	"monetlite/internal/hashtab"
	"monetlite/internal/memsim"
)

// FuzzRadixClusterKV checks the radix KV-cluster invariants on
// arbitrary feeds:
//
//   - partition structure: offsets are monotone, cover [0, n], and
//     every tuple in partition p has key low-bits p (histogram
//     conservation — no tuple gained, lost, or misfiled);
//   - stability: within each partition, tuples keep their input
//     order (pinned by comparing against a counting-sort oracle that
//     is stable by construction);
//   - value fidelity: each key keeps its measure;
//   - determinism: the parallel path is byte-identical to serial;
//   - the simulated run (RadixClusterKVSim) produces the native
//     permutation and offsets, and two fresh simulators count the
//     same Stats.
//
// The same feed, as BUN pairs under hashtab.Mult on a random per-pass
// bit split, drives the pair layout: serial, four workers and two
// fresh simulators must agree on the clustering and the Stats.
func FuzzRadixClusterKV(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, uint8(4), uint8(2))
	f.Add([]byte{}, uint8(0), uint8(1))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, uint8(8), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, bitsRaw, passesRaw uint8) {
		bits := int(bitsRaw % 12)
		passes := 1
		if bits > 0 {
			passes = 1 + int(passesRaw)%bits
			if passes > 3 {
				passes = 3
			}
		}
		n := len(data) / 2
		keys := make([]int64, n)
		vals := make([]float64, n)
		for i := 0; i < n; i++ {
			// Signed 16-bit keys exercise the negative two's-complement
			// clustering path; the measure tags the input position so
			// stability is observable even through duplicate keys.
			keys[i] = int64(int16(binary.LittleEndian.Uint16(data[2*i:])))
			vals[i] = float64(i)
		}

		serialK, serialV, serialOff, err := RadixClusterKV(keys, vals, bits, passes, Serial())
		if err != nil {
			t.Fatalf("serial RadixClusterKV: %v", err)
		}

		// Partition structure + conservation.
		parts := 1 << bits
		if len(serialOff) != parts+1 || serialOff[0] != 0 || serialOff[parts] != n {
			t.Fatalf("offsets %v do not delimit %d partitions over %d tuples", serialOff, parts, n)
		}
		mask := int64(parts - 1)
		for p := 0; p < parts; p++ {
			if serialOff[p] > serialOff[p+1] {
				t.Fatalf("offsets not monotone at %d: %v", p, serialOff)
			}
			for i := serialOff[p]; i < serialOff[p+1]; i++ {
				if serialK[i]&mask != int64(p) {
					t.Fatalf("key %d (low bits %d) filed in partition %d", serialK[i], serialK[i]&mask, p)
				}
			}
		}

		// Stability + fidelity against a one-pass counting-sort oracle.
		counts := make([]int, parts)
		for _, k := range keys {
			counts[int(k&mask)]++
		}
		cursors := make([]int, parts)
		pos := 0
		for p := 0; p < parts; p++ {
			if counts[p] != serialOff[p+1]-serialOff[p] {
				t.Fatalf("partition %d holds %d tuples, histogram says %d", p, serialOff[p+1]-serialOff[p], counts[p])
			}
			cursors[p] = pos
			pos += counts[p]
		}
		for i := 0; i < n; i++ {
			p := int(keys[i] & mask)
			at := cursors[p]
			cursors[p]++
			if serialK[at] != keys[i] || serialV[at] != vals[i] {
				t.Fatalf("tuple %d (key %d, val %g) not at stable position %d: got key %d, val %g",
					i, keys[i], vals[i], at, serialK[at], serialV[at])
			}
		}

		// Parallel output must be byte-identical to serial.
		parK, parV, parOff, err := RadixClusterKV(keys, vals, bits, passes, Options{Parallelism: 4})
		if err != nil {
			t.Fatalf("parallel RadixClusterKV: %v", err)
		}
		if len(parOff) != len(serialOff) {
			t.Fatalf("parallel offsets %v != serial %v", parOff, serialOff)
		}
		for i := range serialOff {
			if parOff[i] != serialOff[i] {
				t.Fatalf("parallel offsets %v != serial %v", parOff, serialOff)
			}
		}
		for i := 0; i < n; i++ {
			if parK[i] != serialK[i] || parV[i] != serialV[i] {
				t.Fatalf("parallel output diverges from serial at %d: (%d, %g) vs (%d, %g)",
					i, parK[i], parV[i], serialK[i], serialV[i])
			}
		}

		// The simulated run replays the native clustering.
		var kvStats [2]memsim.Stats
		for s := range kvStats {
			sim := memsim.MustNew(memsim.Origin2000())
			simK, simV, simOff, _, err := RadixClusterKVSim(sim, keys, vals, sim.Alloc(KVPairBytes*n), bits, passes)
			if err != nil {
				t.Fatalf("RadixClusterKVSim: %v", err)
			}
			if !slices.Equal(simK, serialK) || !slices.Equal(simV, serialV) || !slices.Equal(simOff, serialOff) {
				t.Fatalf("simulated KV clustering diverges from native")
			}
			kvStats[s] = sim.Stats()
		}
		if kvStats[0] != kvStats[1] {
			t.Fatalf("two fresh simulators disagree: %+v vs %+v", kvStats[0], kvStats[1])
		}

		// The BUN-pair layout on the same keys, a random split, Mult hash.
		if bits == 0 {
			return
		}
		split, left := make([]int, passes), bits
		for p := range split {
			split[p] = left // the last pass takes the rest
			if rest := passes - 1 - p; rest > 0 {
				split[p] = 1 + int(passesRaw>>p)%(left-rest)
			}
			left -= split[p]
		}
		in := bat.NewPairs(n)
		for i := range in.BUNs {
			in.BUNs[i] = bat.Pair{Head: bat.Oid(i), Tail: uint32(keys[i])}
		}
		want, err := RadixClusterSplitOpts(nil, in, split, hashtab.Mult, Serial())
		if err != nil {
			t.Fatalf("split %v: %v", split, err)
		}
		if err := want.Validate(); err != nil {
			t.Fatalf("split %v: %v", split, err)
		}
		got, err := RadixClusterSplitOpts(nil, in, split, hashtab.Mult, Options{Parallelism: 4})
		if err != nil || !slices.Equal(got.Pairs.BUNs, want.Pairs.BUNs) || !slices.Equal(got.Offsets, want.Offsets) {
			t.Fatalf("split %v: parallel pair clustering diverges from serial (%v)", split, err)
		}
		var pairStats [2]memsim.Stats
		for s := range pairStats {
			sim := memsim.MustNew(memsim.Origin2000())
			got, err := RadixClusterSplitOpts(sim, in.Clone(), split, hashtab.Mult, Serial())
			if err != nil || !slices.Equal(got.Pairs.BUNs, want.Pairs.BUNs) || !slices.Equal(got.Offsets, want.Offsets) {
				t.Fatalf("split %v: simulated pair clustering diverges from native (%v)", split, err)
			}
			pairStats[s] = sim.Stats()
		}
		if pairStats[0] != pairStats[1] {
			t.Fatalf("split %v: two fresh simulators disagree: %+v vs %+v", split, pairStats[0], pairStats[1])
		}
	})
}

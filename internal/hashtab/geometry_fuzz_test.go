package hashtab

import (
	"testing"

	"monetlite/internal/bat"
	"monetlite/internal/memsim"
	"monetlite/internal/workload"
)

// probeAll runs ProbeVec over all keys with outputs of size pairs and
// returns the (tag, position) pairs it emits.
func probeAll(sim *memsim.Sim, tab *Table, build *bat.Pairs, keys []uint32, tags []int32, size int) [][2]int32 {
	outTag, outPos := make([]int32, size), make([]int32, size)
	var got [][2]int32
	var c Cursor
	for c.Key < len(keys) {
		n := tab.ProbeVec(sim, build, keys, tags, &c, outTag, outPos)
		for i := 0; i < n; i++ {
			got = append(got, [2]int32{outTag[i], outPos[i]})
		}
	}
	return got
}

// FuzzProbeVecGeometry: the native geometry (a mean chain of one)
// emits exactly the (tag, position) sequence of the simulated one (the
// paper's chain of ChainTarget) over random builds with duplicates,
// probes with misses, Identity and Mult, bucket shifts 0–12 and
// outputs of 1–8 pairs; and the simulated ProbeVec mirrors exactly the
// accesses of one Probe per key.
//
//	go test -run '^$' -fuzz FuzzProbeVecGeometry -fuzztime 30s ./internal/hashtab
func FuzzProbeVecGeometry(f *testing.F) {
	f.Add(uint64(1), uint16(300), uint8(16), uint16(200), false, uint8(0), uint8(1))
	f.Add(uint64(2), uint16(2000), uint8(255), uint16(1024), true, uint8(12), uint8(8))
	f.Add(uint64(3), uint16(0), uint8(3), uint16(50), false, uint8(6), uint8(3))
	f.Add(uint64(4), uint16(4095), uint8(0), uint16(300), true, uint8(4), uint8(5))
	f.Add(uint64(5), uint16(1), uint8(1), uint16(0), false, uint8(11), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, nbRaw uint16, domRaw uint8, nkRaw uint16, mult bool, shiftRaw, sizeRaw uint8) {
		rng := workload.NewRNG(seed)
		nb, shift, size := int(nbRaw)%4096, int(shiftRaw)%13, 1+int(sizeRaw)%8
		dense := rng.Intn(2) == 0
		pool := make([]uint32, 1+int(domRaw))
		for i := range pool {
			if pool[i] = rng.Uint32(); dense {
				pool[i] = uint32(i)
			}
		}
		tails := make([]uint32, nb)
		for i := range tails {
			tails[i] = pool[rng.Intn(len(pool))]
		}
		keys, tags := make([]uint32, int(nkRaw)%2048), make([]int32, int(nkRaw)%2048)
		for i := range keys {
			keys[i], tags[i] = pool[rng.Intn(len(pool))], int32(1000+i)
			if rng.Intn(4) == 0 {
				keys[i] = rng.Uint32() // a likely miss
			}
		}
		h := Identity
		if mult {
			h = Mult
		}

		native := NewShifted(nb, shift, h)
		nbuild := pairsOf(tails...)
		native.Build(nil, nbuild)
		if native.Buckets() != NativeBuckets(nb) {
			t.Fatalf("native build of %d tuples has %d buckets, want %d", nb, native.Buckets(), NativeBuckets(nb))
		}
		got := probeAll(nil, native, nbuild, keys, tags, size)

		// One sim replays Probe per key, the other ProbeVec; a BAT keeps
		// the simulated addresses of the first sim it meets, so each sim
		// gets its own copy.
		var sims [2]*memsim.Sim
		var tabs [2]*Table
		var builds [2]*bat.Pairs
		for i := range sims {
			sims[i], builds[i] = memsim.MustNew(memsim.Origin2000()), pairsOf(tails...)
			builds[i].Bind(sims[i])
			tabs[i] = NewShifted(nb, shift, h)
			tabs[i].Build(sims[i], builds[i])
		}
		if tabs[1].Buckets() != BucketsFor(nb) {
			t.Fatalf("simulated build of %d tuples has %d buckets, want %d", nb, tabs[1].Buckets(), BucketsFor(nb))
		}
		var perKey [][2]int32
		for k, key := range keys {
			tabs[0].Probe(sims[0], builds[0], key, func(pos int32) { perKey = append(perKey, [2]int32{tags[k], pos}) })
		}
		want := probeAll(sims[1], tabs[1], builds[1], keys, tags, size)
		if a, b := sims[0].Stats(), sims[1].Stats(); a != b {
			t.Fatalf("simulated accesses differ:\nProbe    %+v\nProbeVec %+v", a, b)
		}
		for _, c := range []struct {
			name string
			got  [][2]int32
		}{{"simulated Probe", perKey}, {"native ProbeVec", got}} {
			if len(c.got) != len(want) {
				t.Fatalf("%s emitted %d pairs, simulated ProbeVec %d", c.name, len(c.got), len(want))
			}
			for i := range want {
				if c.got[i] != want[i] {
					t.Fatalf("pair %d: %s %v, simulated ProbeVec %v", i, c.name, c.got[i], want[i])
				}
			}
		}
	})
}

package core

import "testing"

// FuzzJoinPhases runs checkJoinPhases on generated inputs: every join
// equals the reference join, and the partitioned joins' serial,
// parallel and simulated runs agree BUN for BUN. The arguments cover
// radix bits 0–8 and pass counts up to 3, inner keys hot enough to
// overflow one native probe vector, domains that leave keys unmatched,
// and 1 or 4 workers; every simulated run has a fresh simulator.
func FuzzJoinPhases(f *testing.F) {
	f.Add(uint64(1), uint16(300), uint16(64), uint8(1), uint8(1), uint16(0), true)
	f.Add(uint64(2), uint16(257), uint16(64), uint8(0), uint8(1), uint16(0), false)
	f.Add(uint64(3), uint16(900), uint16(2047), uint8(5), uint8(2), uint16(600), true)
	f.Add(uint64(4), uint16(700), uint16(16), uint8(8), uint8(3), uint16(300), false)
	f.Add(uint64(5), uint16(1), uint16(1), uint8(3), uint8(1), uint16(1), true)
	f.Add(uint64(6), uint16(0), uint16(7), uint8(2), uint8(2), uint16(0), true)
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, domainRaw uint16, bitsRaw, passesRaw uint8, hot uint16, par bool) {
		n, domain := int(nRaw)%1024, int(domainRaw)%4096+1
		bits, passes := int(bitsRaw)%9, 1
		if bits > 0 {
			passes = 1 + int(passesRaw)%min(bits, 3)
		}
		workers := 1
		if par {
			workers = 4
		}
		l, r := joinInput(seed, n, domain, int(hot)%1024)
		if err := checkJoinPhases(l, r, bits, passes, workers); err != nil {
			t.Fatalf("n %d, domain %d, B=%d P=%d, hot %d, %d workers: %v", n, domain, bits, passes, hot, workers, err)
		}
	})
}

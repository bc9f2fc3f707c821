package scan

import (
	"testing"

	"monetlite/internal/memsim"
)

func TestRunValidation(t *testing.T) {
	m := memsim.Origin2000()
	if _, err := Run(m, 0, 100); err == nil {
		t.Error("zero stride accepted")
	}
	if _, err := Run(m, 8, 0); err == nil {
		t.Error("zero iterations accepted")
	}
	bad := m
	bad.ClockMHz = 0
	if _, err := Run(bad, 8, 100); err == nil {
		t.Error("invalid machine accepted")
	}
}

func TestMonotoneUntilPlateau(t *testing.T) {
	// Figure 3: cost rises with stride until the L2 line size, then
	// stays constant.
	m := memsim.Origin2000()
	var prev float64
	for _, s := range []int{1, 2, 4, 8, 16, 32, 64, 128} {
		r, err := Run(m, s, 50000)
		if err != nil {
			t.Fatal(err)
		}
		if ms := r.Millis(); ms < prev {
			t.Errorf("stride %d: %.3fms dropped below %.3fms", s, ms, prev)
		} else {
			prev = ms
		}
	}
	at128, _ := Run(m, 128, 50000)
	at256, _ := Run(m, 256, 50000)
	rel := at256.Millis() / at128.Millis()
	if rel < 0.98 || rel > 1.02 {
		t.Errorf("no plateau past L2 line: %.3f vs %.3f ms", at128.Millis(), at256.Millis())
	}
}

func TestKneesMatchLineSizes(t *testing.T) {
	// The L1 miss rate saturates at one miss/iteration at the L1 line
	// size; the L2 miss rate at the L2 line size (§2).
	m := memsim.Origin2000()
	iters := 100000
	atL1, _ := Run(m, m.L1.LineSize, iters)
	if got := float64(atL1.Stats.L1Misses) / float64(iters); got < 0.99 {
		t.Errorf("L1 miss rate at stride %d = %.3f, want ≈1", m.L1.LineSize, got)
	}
	atHalfL1, _ := Run(m, m.L1.LineSize/2, iters)
	if got := float64(atHalfL1.Stats.L1Misses) / float64(iters); got > 0.51 {
		t.Errorf("L1 miss rate at half line = %.3f, want ≈0.5", got)
	}
	atL2, _ := Run(m, m.L2.LineSize, iters)
	if got := float64(atL2.Stats.L2Misses) / float64(iters); got < 0.99 {
		t.Errorf("L2 miss rate at stride %d = %.3f, want ≈1", m.L2.LineSize, got)
	}
}

func TestStallDominatesAtFullMiss(t *testing.T) {
	// §2: "a database server running even a simple sequential scan on
	// a table will spend 95% of its cycles waiting for memory".
	m := memsim.Origin2000()
	r, err := Run(m, 256, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if f := StallFraction(r); f < 0.90 {
		t.Errorf("stall fraction at stride 256 = %.2f, want ≥ 0.90", f)
	}
}

func TestCyclesPerIterationStride8(t *testing.T) {
	// §3.1: stride-8 scan ≈ 10 cycles/iteration of which 4 are CPU
	// work on the Origin2000.
	m := memsim.Origin2000()
	r, err := Run(m, 8, 200000)
	if err != nil {
		t.Fatal(err)
	}
	work, stall := CyclesPerIteration(m, r)
	if work < 3.5 || work > 4.5 {
		t.Errorf("CPU cycles/iter = %.2f, want ≈4", work)
	}
	total := work + stall
	if total < 7 || total > 13 {
		t.Errorf("total cycles/iter at stride 8 = %.2f, want ≈10", total)
	}
}

func TestMachinesOrderedByAge(t *testing.T) {
	// Figure 3's headline: the memory-access penalty has grown; at
	// stride 1 the newest machine is fastest, and every machine's
	// plateau sits well above its stride-1 cost.
	var stride1, plateau []float64
	for _, m := range memsim.Machines() {
		r1, err := Run(m, 1, Iterations)
		if err != nil {
			t.Fatal(err)
		}
		rp, err := Run(m, 256, Iterations)
		if err != nil {
			t.Fatal(err)
		}
		stride1 = append(stride1, r1.Millis())
		plateau = append(plateau, rp.Millis())
	}
	// Machines() is ordered newest → oldest. The 1990s-era machines
	// hover together at stride 1 (their clocks are close), so the
	// figure's real message is in the ratios: every machine pays a
	// penalty at full stride, and the penalty ratio grows monotonically
	// for newer machines (the "sad conclusion" of §2).
	if stride1[3] < 2*stride1[0] {
		t.Errorf("1992 machine should be far slower at stride 1: %.2f vs %.2f", stride1[3], stride1[0])
	}
	for i, m := range memsim.Machines() {
		ratio := plateau[i] / stride1[i]
		if ratio < 1.5 {
			t.Errorf("%s: plateau only %.2f× stride-1 cost", m.Name, ratio)
		}
	}
	for i := 1; i < len(plateau); i++ {
		newer := plateau[i-1] / stride1[i-1]
		older := plateau[i] / stride1[i]
		if newer <= older {
			t.Errorf("penalty ratio not growing with machine age: %.1f× then %.1f×", newer, older)
		}
	}
}

func TestBUNScanWidths(t *testing.T) {
	// §3.1: smaller stride ⇒ cheaper scan. 1-byte encoded column <
	// 8-byte BUN < 80-byte relational record.
	m := memsim.Origin2000()
	w1, err := BUNScan(m, 100000, 1)
	if err != nil {
		t.Fatal(err)
	}
	w8, _ := BUNScan(m, 100000, 8)
	w80, _ := BUNScan(m, 100000, 80)
	if !(w1.ElapsedNanos() < w8.ElapsedNanos() && w8.ElapsedNanos() < w80.ElapsedNanos()) {
		t.Errorf("widths not ordered: 1B=%.2fms 8B=%.2fms 80B=%.2fms",
			w1.ElapsedMillis(), w8.ElapsedMillis(), w80.ElapsedMillis())
	}
	if _, err := BUNScan(m, 0, 8); err == nil {
		t.Error("zero n accepted")
	}
	if _, err := BUNScan(m, 10, 0); err == nil {
		t.Error("zero width accepted")
	}
}

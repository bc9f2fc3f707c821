// Package scan implements the paper's initial experiment (§2,
// Figure 3): sequentially reading one byte from an in-memory buffer at
// a varying stride, mimicking a read-only scan of a one-byte column in
// a table with a given record width. It also implements the §3.1
// BUN-scan variants that motivate vertical decomposition: the same
// aggregate over 8-byte BUNs versus an 80-byte relational record and
// versus a 1-byte encoded column.
package scan

import (
	"fmt"

	"monetlite/internal/memsim"
)

// Iterations is the iteration count of Figure 3 (200,000 tuples).
const Iterations = 200000

// Result is one simulated point of the scan experiment.
type Result struct {
	Machine string
	Stride  int
	Iters   int
	Stats   memsim.Stats
}

// Millis returns the simulated elapsed milliseconds, Figure 3's Y axis.
func (r Result) Millis() float64 { return r.Stats.ElapsedMillis() }

// Run performs the stride scan on a fresh simulator for machine m:
// iters iterations reading one byte every stride bytes from a buffer
// that is in memory but cold in all caches, exactly the Figure-3
// setup. The per-iteration CPU work (the paper's 4 cycles on the
// Origin2000) is charged from the machine's calibration.
func Run(m memsim.Machine, stride, iters int) (Result, error) {
	if stride <= 0 {
		return Result{}, fmt.Errorf("scan: non-positive stride %d", stride)
	}
	if iters <= 0 {
		return Result{}, fmt.Errorf("scan: non-positive iteration count %d", iters)
	}
	sim, err := memsim.New(m)
	if err != nil {
		return Result{}, err
	}
	base := sim.Alloc(stride * iters)
	sim.InvalidateCaches()
	for i := 0; i < iters; i++ {
		sim.Read(base+uint64(i)*uint64(stride), 1)
	}
	sim.AddCPU(iters, m.Cost.WScanByte)
	return Result{Machine: m.Name, Stride: stride, Iters: iters, Stats: sim.Stats()}, nil
}

// CyclesPerIteration converts a result to CPU cycles per iteration on
// its machine, the unit of the §3.1 discussion (4 cycles of work vs 6
// cycles of memory stall for a stride-8 scan on the Origin2000).
func CyclesPerIteration(m memsim.Machine, r Result) (work, stall float64) {
	perIterWork := r.Stats.CPUNanos / float64(r.Iters)
	perIterStall := r.Stats.StallNanos / float64(r.Iters)
	return perIterWork * m.CyclesPerNano(), perIterStall * m.CyclesPerNano()
}

// StallFraction returns the fraction of simulated time spent waiting
// on memory — the paper's "95% of its cycles waiting for memory" claim
// for strides past the L2 line size.
func StallFraction(r Result) float64 {
	t := r.Stats.ElapsedNanos()
	if t == 0 {
		return 0
	}
	return r.Stats.StallNanos / t
}

// BUNScan simulates the §3.1 comparison on machine m: the same
// Max-style aggregate over n tuples stored (a) as w-byte-wide records
// where only one field is needed. It returns the simulated stats. The
// paper's cases: w=80 relational record, w=8 BAT BUN, w=1 encoded
// column.
func BUNScan(m memsim.Machine, n, width int) (memsim.Stats, error) {
	if width <= 0 || n <= 0 {
		return memsim.Stats{}, fmt.Errorf("scan: invalid BUN scan n=%d width=%d", n, width)
	}
	sim, err := memsim.New(m)
	if err != nil {
		return memsim.Stats{}, err
	}
	base := sim.Alloc(n * width)
	sim.InvalidateCaches()
	for i := 0; i < n; i++ {
		sim.Read(base+uint64(i)*uint64(width), 1)
	}
	sim.AddCPU(n, m.Cost.WScanBUN)
	return sim.Stats(), nil
}

// Package calibrate measures the cache/TLB geometry and per-event
// latencies of the machine it runs on — the paper's Calibrator
// (§3.4.3, www.cwi.nl/~manegold/Calibrator) reborn in Go. The paper's
// authors ran it on every experimental platform before modelling it;
// here its output is a memsim.Machine named "host" that the engine's
// unified cost model prices plans with, replacing the canned 1999
// profiles with measured reality.
//
// Measurement techniques, all latency- rather than bandwidth-bound:
//
//   - Cache line size: a sequential strided read over a RAM-sized
//     buffer. Per-access cost grows with the stride until it reaches
//     the line size (every access its own miss), then flattens — the
//     knee is the line.
//   - Cache capacities and miss latencies: a pointer chase along a
//     random single-cycle permutation of line-spaced slots. The data
//     dependency defeats out-of-order overlap and the random order
//     defeats the prefetchers, so per-access time is the true load
//     latency of whatever level the working set spills into. The
//     latency-vs-working-set curve is a staircase; its jumps mark the
//     L1 and L2 capacities, its plateaus the miss latencies.
//   - TLB: a pointer chase touching one line per page, with the
//     intra-page offset rotated so the touched lines spread over cache
//     sets (otherwise every page's line maps to the same sets and the
//     cache capacity masks the TLB knee). Latency jumps when the page
//     count exceeds the TLB.
//   - Sequential-miss cost: a full-speed sequential sweep — DRAM
//     bursts and non-blocking caches overlap these misses, which is
//     exactly the LatMemSeq < LatMem effect Figure 3's plateaus show.
//   - CPU work: dependent-add chains (clock) and cache-resident scan
//     loops (per-BUN / per-byte work), with the paper's per-operation
//     join and cluster constants scaled from the Origin2000 values by
//     the measured scan-work ratio — the residual-learning loop then
//     corrects per-operator-kind deviations from that uniform scaling.
//
// Every timed section takes the minimum over Config.Repeats runs: the
// minimum is the run least disturbed by scheduling noise, the right
// estimator for a lower-bound hardware latency.
package calibrate

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"monetlite/internal/memsim"
)

// Config sizes the calibration sweeps.
type Config struct {
	// MaxWorkingSet bounds the pointer-chase working-set grid; it must
	// comfortably exceed any L2 for the DRAM plateau to appear.
	MaxWorkingSet int
	// ChaseSteps is the number of dependent loads timed per
	// working-set point.
	ChaseSteps int
	// Repeats is how many times each timed section runs; the minimum
	// is kept.
	Repeats int
	// MaxTLBPages bounds the TLB sweep's page count.
	MaxTLBPages int
}

// Default returns the full-accuracy configuration (a few seconds of
// measurement).
func Default() Config {
	return Config{
		MaxWorkingSet: 64 << 20,
		ChaseSteps:    1 << 19,
		Repeats:       3,
		MaxTLBPages:   1 << 13,
	}
}

// Quick returns a reduced-sweep configuration for CI smoke jobs:
// coarser (the DRAM plateau is shallower at 16 MB) but fast.
func Quick() Config {
	return Config{
		MaxWorkingSet: 16 << 20,
		ChaseSteps:    1 << 17,
		Repeats:       2,
		MaxTLBPages:   1 << 12,
	}
}

// Point is one sample of a measured curve.
type Point struct {
	X  int     `json:"x"`  // working-set bytes, stride bytes, or pages
	NS float64 `json:"ns"` // nanoseconds per access
}

// Report carries the raw calibration curves alongside the derived
// machine — the evidence behind every parameter.
type Report struct {
	LineCurve  []Point `json:"line_curve"`  // stride sweep (line size)
	ChaseCurve []Point `json:"chase_curve"` // working-set sweep (capacity/latency)
	TLBCurve   []Point `json:"tlb_curve"`   // page-count sweep
	SeqNSLine  float64 `json:"seq_ns_line"` // sequential sweep, ns per L2 line
	ScanBUNNS  float64 `json:"scan_bun_ns"` // cache-resident 8-byte scan, ns per BUN
	ScanByteNS float64 `json:"scan_byte_ns"`
	ClockMHz   float64 `json:"clock_mhz"`
}

// sink defeats dead-code elimination of the measurement loops.
var sink int64

// touchPages writes one word per page so the buffer is backed by real
// frames before timing — reads on untouched Go allocations can hit
// copy-on-write zero pages and measure the cache, not the memory.
func touchPages(buf []int32) {
	for i := 0; i < len(buf); i += 1024 {
		buf[i] = int32(i)
	}
}

// minNS times fn repeats times and returns the fastest run in
// nanoseconds.
func minNS(repeats int, fn func()) float64 {
	best := 0.0
	for r := 0; r < repeats; r++ {
		start := time.Now()
		fn()
		d := float64(time.Since(start).Nanoseconds())
		if r == 0 || d < best {
			best = d
		}
	}
	return best
}

// chaseCycle links buf's slots (spaced stride bytes apart, int32
// indices) into one random cycle and returns the chase entry point.
// The permutation is seeded deterministically: calibration noise
// should come from the machine, not the pattern.
func chaseCycle(buf []int32, n, spacing int, seed int64) int {
	r := rand.New(rand.NewSource(seed))
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	for k := 0; k < n; k++ {
		buf[order[k]*spacing] = int32(order[(k+1)%n] * spacing)
	}
	return order[0] * spacing
}

// chaseNS runs steps dependent loads along the cycle and returns ns
// per access (minimum over repeats).
func chaseNS(buf []int32, start, steps, repeats int) float64 {
	total := minNS(repeats, func() {
		p := int32(start)
		for i := 0; i < steps; i++ {
			p = buf[p]
		}
		sink += int64(p)
	})
	return total / float64(steps)
}

// measureLine sweeps the stride of a sequential read over a RAM-sized
// buffer: per-access time rises until the stride covers a full cache
// line, then flattens. Returns the detected line size and the curve.
func measureLine(cfg Config) (int, []Point) {
	bytes := cfg.MaxWorkingSet
	buf := make([]int32, bytes/4)
	touchPages(buf)
	var curve []Point
	for stride := 8; stride <= 512; stride *= 2 {
		sp := stride / 4
		accesses := len(buf) / sp
		total := minNS(cfg.Repeats, func() {
			var s int64
			for i := 0; i < len(buf); i += sp {
				s += int64(buf[i])
			}
			sink += s
		})
		curve = append(curve, Point{X: stride, NS: total / float64(accesses)})
	}
	// The line size is where the steepest growth ends: per-access cost
	// grows with the stride while stride < line (each access covers a
	// growing fraction of a miss) and flattens once every access is a
	// full transfer. That knee only exists where sequential misses are
	// latency-bound; aggressive prefetchers (and virtualized hosts)
	// flatten it into near-linear bandwidth growth, where any jump-
	// picking would flap run to run. Accept the knee only when it is
	// unambiguous — the largest jump ≥ 1.5 and ≥ 1.3× the runner-up —
	// and otherwise fall back to 64 bytes, the line size of every
	// relevant contemporary core.
	best, second, bestAt := 0.0, 0.0, -1
	for i := 1; i < len(curve); i++ {
		if curve[i-1].NS <= 0 {
			continue
		}
		r := curve[i].NS / curve[i-1].NS
		if r > best {
			second, best, bestAt = best, r, i
		} else if r > second {
			second = r
		}
	}
	line := 64
	if bestAt >= 0 && best >= 1.5 && best >= 1.3*second {
		line = curve[bestAt].X
	}
	if line < 32 {
		line = 32 // no sub-32B line hardware worth modelling
	}
	if line > 256 {
		line = 256
	}
	return line, curve
}

// measureChase sweeps the pointer-chase working set over powers of two
// and returns the latency curve.
func measureChase(cfg Config, line int) []Point {
	buf := make([]int32, cfg.MaxWorkingSet/4)
	spacing := line / 4
	var curve []Point
	for ws := 4 << 10; ws <= cfg.MaxWorkingSet; ws *= 2 {
		n := ws / line
		if n < 8 {
			continue
		}
		start := chaseCycle(buf, n, spacing, int64(ws))
		steps := cfg.ChaseSteps
		if ws >= 1<<20 {
			steps = cfg.ChaseSteps / 4 // RAM points are slow; fewer steps suffice
		}
		curve = append(curve, Point{X: ws, NS: chaseNS(buf, start, steps, cfg.Repeats)})
	}
	return curve
}

// knees finds the two largest latency jumps in the chase curve — the
// L1 and L2 capacity boundaries. A jump at point i means working set
// curve[i+1].X spilled the cache that still held curve[i].X, so the
// capacity is curve[i].X. Returns indices into curve, -1 when a knee
// is indistinct (jump ratio under 1.25).
func knees(curve []Point) (l1, l2 int) {
	l1, l2 = -1, -1
	best1, best2 := 1.25, 1.25
	for i := 0; i+1 < len(curve); i++ {
		if curve[i].NS <= 0 {
			continue
		}
		r := curve[i+1].NS / curve[i].NS
		switch {
		case r > best1:
			best2, l2 = best1, l1
			best1, l1 = r, i
		case r > best2:
			best2, l2 = r, i
		}
	}
	if l1 >= 0 && l2 >= 0 && curve[l1].X > curve[l2].X {
		l1, l2 = l2, l1
	}
	return l1, l2
}

// plateauNS averages the curve's latency over (lo, hi] working sets —
// one staircase step.
func plateauNS(curve []Point, lo, hi int) float64 {
	sum, n := 0.0, 0
	for _, p := range curve {
		if p.X > lo && p.X <= hi {
			sum += p.NS
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// missLatencies derives the per-level miss latencies from the chase
// curve's three plateaus: an L1 miss serviced by L2 costs the L2
// plateau minus the L1 one, an L2 miss serviced by DRAM the memory
// plateau minus the L2 one. The guards act on these differences, not
// on the plateaus: noisy plateaus can rise level by level while their
// steps shrink (1, 5.25, 8.68 ns gives LatL2 4.25 > LatMem 3.43), and
// Check wants LatL2 > 0 and LatL2 ≤ LatMem.
func missLatencies(curve []Point, l1Size, l2Size int) (latL2, latMem float64) {
	l1NS := plateauNS(curve, 0, l1Size)
	l2NS := plateauNS(curve, l1Size, l2Size)
	memNS := plateauNS(curve, l2Size, curve[len(curve)-1].X)
	latL2 = l2NS - l1NS
	if !(latL2 > 0) {
		// Flat L1/L2 staircase: take the L2 plateau as twice L1's.
		latL2, l2NS = l1NS, 2*l1NS
	}
	latMem = memNS - l2NS
	if !(latMem > 0) {
		latMem = l2NS // flat L2/RAM staircase: likewise
	}
	return latL2, max(latMem, latL2)
}

// measureTLB chases one line per page over a growing page count,
// rotating the intra-page offset so the touched lines spread across
// cache sets. Returns the curve (X = pages).
func measureTLB(cfg Config, pageSize, line int) []Point {
	buf := make([]int32, cfg.MaxTLBPages*pageSize/4)
	perPage := pageSize / 4
	var curve []Point
	for pages := 8; pages <= cfg.MaxTLBPages; pages *= 2 {
		// Build the cycle by hand: slot i lives on page i at offset
		// (i % 64) lines into the page.
		r := rand.New(rand.NewSource(int64(pages)))
		order := make([]int, pages)
		for i := range order {
			order[i] = i
		}
		for i := pages - 1; i > 0; i-- {
			j := r.Intn(i + 1)
			order[i], order[j] = order[j], order[i]
		}
		// Rotate the intra-page line offset so the touched lines spread
		// over cache sets, staying inside the page.
		offsets := pageSize / line
		if offsets < 1 {
			offsets = 1
		}
		if offsets > 64 {
			offsets = 64
		}
		slot := func(i int) int32 {
			return int32(i*perPage + (i%offsets)*(line/4))
		}
		for k := 0; k < pages; k++ {
			buf[slot(order[k])] = slot(order[(k+1)%pages])
		}
		steps := cfg.ChaseSteps / 8
		curve = append(curve, Point{X: pages,
			NS: chaseNS(buf, int(slot(order[0])), steps, cfg.Repeats)})
	}
	return curve
}

// measureClock estimates the core clock from a dependent-add chain
// (one add per cycle on any relevant core).
func measureClock(repeats int) float64 {
	const iters = 1 << 24
	total := minNS(repeats, func() {
		x := int64(1)
		for i := 0; i < iters; i++ {
			x += x>>63 + 1 // dependent: each add waits on the last
		}
		sink += x
	})
	mhz := float64(iters) / total * 1000
	if mhz < 100 {
		mhz = 100
	}
	if mhz > 10000 {
		mhz = 10000
	}
	return mhz
}

// measureScan times cache-resident scan loops: ns per 8-byte BUN and
// ns per byte — the WScanBUN / WScanByte work constants.
func measureScan(cfg Config) (bunNS, byteNS float64) {
	const bytes = 16 << 10 // L1-resident on anything plausible
	b64 := make([]int64, bytes/8)
	for i := range b64 {
		b64[i] = int64(i)
	}
	const passes = 1 << 11
	total := minNS(cfg.Repeats, func() {
		var s int64
		for p := 0; p < passes; p++ {
			for _, v := range b64 {
				s += v
			}
		}
		sink += s
	})
	bunNS = total / float64(passes*len(b64))
	b8 := make([]byte, bytes)
	total = minNS(cfg.Repeats, func() {
		var s int64
		for p := 0; p < passes; p++ {
			for _, v := range b8 {
				s += int64(v)
			}
		}
		sink += s
	})
	byteNS = total / float64(passes*len(b8))
	return bunNS, byteNS
}

// measureSeq times a full sequential sweep over a RAM-sized buffer and
// returns ns per line-sized chunk — the effective sequential-miss
// cost, CPU scan work subtracted.
func measureSeq(cfg Config, line int, bunNS float64) float64 {
	buf := make([]int64, cfg.MaxWorkingSet/8)
	for i := 0; i < len(buf); i += 512 {
		buf[i] = int64(i) // fault in real pages (zeroed memory is CoW-shared)
	}
	total := minNS(cfg.Repeats, func() {
		var s int64
		for _, v := range buf {
			s += v
		}
		sink += s
	})
	perLine := total / float64(cfg.MaxWorkingSet/line)
	cpu := bunNS * float64(line/8)
	if perLine > cpu {
		perLine -= cpu
	}
	if perLine < 1 {
		perLine = 1
	}
	return perLine
}

// pow2Floor rounds down to a power of two.
func pow2Floor(x int) int {
	p := 1
	for p*2 <= x {
		p *= 2
	}
	return p
}

// Host measures the running machine and derives its memsim profile.
// The returned machine is named "host" and passes Check; the report
// carries the raw curves for inspection.
func Host(cfg Config) (memsim.Machine, *Report, error) {
	if cfg.MaxWorkingSet < 1<<20 || cfg.ChaseSteps < 1<<12 || cfg.Repeats < 1 {
		return memsim.Machine{}, nil, fmt.Errorf("calibrate: config too small to resolve any knee: %+v", cfg)
	}
	rep := &Report{}
	rep.ClockMHz = measureClock(cfg.Repeats)
	line, lineCurve := measureLine(cfg)
	rep.LineCurve = lineCurve
	curve := measureChase(cfg, line)
	rep.ChaseCurve = curve
	if len(curve) < 4 {
		return memsim.Machine{}, nil, fmt.Errorf("calibrate: chase curve has %d points, need ≥ 4", len(curve))
	}

	l1i, l2i := knees(curve)
	l1Size, l2Size := 32<<10, 8<<20 // plausible when the staircase is flat
	switch {
	case l1i >= 0 && l2i >= 0:
		l1Size, l2Size = curve[l1i].X, curve[l2i].X
	case l1i >= 0:
		// One knee: below 256 KB it is almost certainly L1→L2; above,
		// L2→RAM (a flat L1/L2 means a fast shared cache).
		if curve[l1i].X <= 256<<10 {
			l1Size = curve[l1i].X
		} else {
			l2Size = curve[l1i].X
		}
	}
	if l1Size > l2Size {
		l1Size, l2Size = l2Size, l1Size
	}

	latL2, latMem := missLatencies(curve, l1Size, l2Size)

	pageSize := os.Getpagesize()
	tlbCurve := measureTLB(cfg, pageSize, line)
	rep.TLBCurve = tlbCurve
	tlbEntries, latTLB := 1536, 5.0 // fallback: huge or unresolvable TLB
	if ti, _ := knees(tlbCurve); ti >= 0 {
		tlbEntries = tlbCurve[ti].X
		post := plateauNS(tlbCurve, tlbCurve[ti].X, tlbCurve[len(tlbCurve)-1].X)
		pre := plateauNS(tlbCurve, 0, tlbCurve[ti].X)
		if d := post - pre; d > latTLB {
			latTLB = d
		}
	}

	bunNS, byteNS := measureScan(cfg)
	rep.ScanBUNNS, rep.ScanByteNS = bunNS, byteNS
	rep.SeqNSLine = measureSeq(cfg, line, bunNS)
	latSeq := rep.SeqNSLine
	if latSeq > latMem {
		latSeq = latMem
	}

	// The paper's per-operation join/cluster work constants, scaled by
	// the measured scan-work ratio: uniform scaling is the calibrated
	// zeroth-order estimate; the residual loop (mlquery -calib /
	// -learn) corrects per-operator-kind deviations from it.
	origin := memsim.Origin2000()
	scale := bunNS / origin.Cost.WScanBUN

	m := memsim.Machine{
		Name:     memsim.HostName,
		ClockMHz: rep.ClockMHz,
		L1:       memsim.CacheSpec{Name: "L1", Size: pow2Floor(l1Size), LineSize: line, Assoc: 8},
		L2:       memsim.CacheSpec{Name: "L2", Size: pow2Floor(l2Size), LineSize: line, Assoc: 16},
		TLB:      memsim.TLBSpec{Entries: pow2Floor(tlbEntries), PageSize: pageSize},
		Cost: memsim.CostParams{
			LatL2:     latL2,
			LatMem:    latMem,
			LatMemSeq: latSeq,
			LatTLB:    latTLB,
			Wc:        origin.Cost.Wc * scale,
			Wr:        origin.Cost.Wr * scale,
			WrOut:     origin.Cost.WrOut * scale,
			Wh:        origin.Cost.Wh * scale,
			WhClus:    origin.Cost.WhClus * scale,
			WScanByte: byteNS,
			WScanBUN:  bunNS,
		},
	}
	if err := Check(m); err != nil {
		return memsim.Machine{}, rep, err
	}
	return m, rep, nil
}

// Check enforces the calibration sanity invariants on a machine
// profile: consistent geometry, L1 no larger than L2, all latencies
// and work constants positive, and latencies monotone non-decreasing
// by level (L2 service ≤ DRAM service; sequential ≤ random DRAM).
func Check(m memsim.Machine) error {
	if err := m.Validate(); err != nil {
		return err
	}
	if m.L1.Size > m.L2.Size {
		return fmt.Errorf("calibrate: L1 (%d B) larger than L2 (%d B)", m.L1.Size, m.L2.Size)
	}
	c := m.Cost
	// A machine with identical L1 and L2 models a single unified cache
	// (the sunLX shape); there is no L1→L2 transition to price, so
	// LatL2 = 0 is the correct degenerate value there.
	unified := m.L1.Size == m.L2.Size && m.L1.LineSize == m.L2.LineSize
	if !unified && !(c.LatL2 > 0) {
		return fmt.Errorf("calibrate: LatL2 = %v, want > 0", c.LatL2)
	}
	for _, v := range []struct {
		name string
		val  float64
	}{
		{"LatMem", c.LatMem}, {"LatMemSeq", c.LatMemSeq},
		{"LatTLB", c.LatTLB}, {"Wc", c.Wc}, {"Wr", c.Wr}, {"WrOut", c.WrOut},
		{"Wh", c.Wh}, {"WhClus", c.WhClus},
		{"WScanByte", c.WScanByte}, {"WScanBUN", c.WScanBUN},
	} {
		if !(v.val > 0) {
			return fmt.Errorf("calibrate: %s = %v, want > 0", v.name, v.val)
		}
	}
	if c.LatL2 > c.LatMem {
		return fmt.Errorf("calibrate: LatL2 (%v) exceeds LatMem (%v): latencies must be monotone by level", c.LatL2, c.LatMem)
	}
	if c.LatMemSeq > c.LatMem {
		return fmt.Errorf("calibrate: LatMemSeq (%v) exceeds LatMem (%v): sequential misses cannot cost more than random ones", c.LatMemSeq, c.LatMem)
	}
	return nil
}

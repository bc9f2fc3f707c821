package experiments

import (
	"fmt"

	"monetlite/internal/core"
	"monetlite/internal/memsim"
	"monetlite/internal/workload"
)

// VMAblation reproduces the §4 claim that "algorithms that are tuned
// to run well on one level of the memory, also exhibit good
// performance on the lower levels (e.g., radix-join has pure
// sequential access and consequently also runs well on virtual
// memory)": the join operands are made several times larger than the
// simulated main memory, and the cache-conscious plans are compared to
// the simple hash join on page faults.
func VMAblation(cfg Config) error {
	cfg = cfg.withDefaults()
	c := 1 << 19 // 4 MB per operand
	if cfg.CardOverride > 0 {
		c = cfg.CardOverride
	}
	// Main memory of half one operand: the working set is ~8× memory.
	mem := c * 8 / 2
	machine := cfg.Machine.WithVM(mem, 6e6) // 6 ms per fault: 1998 disk

	t := newTable(fmt.Sprintf("§4 ablation — virtual memory: %s tuples/operand, %d KB resident (faults @6ms)",
		workload.Describe(c), mem>>10),
		"strategy", "page faults", "fault ms", "total sim ms")
	for _, s := range []core.Strategy{core.SimpleHash, core.PhashL1, core.Radix8} {
		plan := core.NewPlan(s, c, cfg.Machine)
		sim, err := memsim.New(machine)
		if err != nil {
			return err
		}
		sim.Budget = cfg.Budget
		l, r := workload.JoinInputs(c, cfg.Seed)
		res, err := core.ExecuteOpts(sim, l, r, plan, nil, core.Serial())
		if err != nil {
			return err
		}
		if res.Len() != c {
			return fmt.Errorf("experiments: VM ablation %v: %d results", s, res.Len())
		}
		st := sim.Stats()
		t.addf("%s\t%s\t%s\t%s", plan, cnt(st.PageFaults),
			ms(float64(st.PageFaults)*machine.VM.LatFault/1e6), ms(st.ElapsedMillis()))
	}
	return cfg.emit(t, "vm_ablation.tsv")
}

// SkewAblation probes the uniform-distribution assumption of §3.4.1:
// join keys whose radix bits follow a Zipf distribution produce
// unbalanced clusters, so the largest cluster no longer obeys the
// strategy formulas' C/H sizing and partitioned hash-join degrades.
func SkewAblation(cfg Config) error {
	cfg = cfg.withDefaults()
	c := 1 << 19
	if cfg.CardOverride > 0 {
		c = cfg.CardOverride
	}
	plan := core.NewPlan(core.PhashL1, c, cfg.Machine)
	t := newTable(fmt.Sprintf("skew ablation — phash L1 (%s) on %s tuples, Zipf radix bits", plan, workload.Describe(c)),
		"skew s", "max cluster", "mean cluster", "sim ms", "L2 misses")
	for _, s := range []float64{0, 0.5, 1.0, 1.5} {
		var l, r = workload.JoinInputs(c, cfg.Seed)
		if s > 0 {
			l, r = workload.SkewedJoinInputs(c, plan.Bits, s, cfg.Seed)
		}
		sim, err := cfg.newSim()
		if err != nil {
			return err
		}
		// Measure cluster imbalance on the clustered inner operand.
		rc, err := core.RadixClusterOpts(nil, r, plan.Bits, plan.Passes, nil, core.Serial())
		if err != nil {
			return err
		}
		maxCl := 0
		for k := 0; k < rc.Clusters(); k++ {
			if n := rc.ClusterLen(k); n > maxCl {
				maxCl = n
			}
		}
		res, err := core.ExecuteOpts(sim, l, r, plan, nil, core.Serial())
		if err != nil {
			return err
		}
		if res.Len() != c {
			return fmt.Errorf("experiments: skew ablation s=%.1f: %d results", s, res.Len())
		}
		st := sim.Stats()
		t.addf("%.1f\t%d\t%.1f\t%s\t%s", s, maxCl, float64(c)/float64(rc.Clusters()),
			ms(st.ElapsedMillis()), cnt(st.L2Misses))
	}
	return cfg.emit(t, "skew_ablation.tsv")
}

// PrefetchAblation quantifies the §2 argument against software
// prefetching [Mow94]: prefetching can hide memory latency behind CPU
// work, so its ceiling is sum/max of the two — "limited due to the
// fact that the amount of CPU work per memory access tends to be small
// in database operations (e.g., ... only 4 cycles)".
func PrefetchAblation(cfg Config) error {
	cfg = cfg.withDefaults()
	m := cfg.Machine
	lat := m.Cost.LatMem
	t := newTable(fmt.Sprintf("§2 ablation — ideal-prefetch ceiling on %s (lMem=%.0fns)", m.Name, lat),
		"CPU work/access (cycles)", "no prefetch ns", "ideal prefetch ns", "max speedup")
	for _, cycles := range []float64{4, 10, 25, 50, 103, 200, 400} {
		work := cycles / m.CyclesPerNano()
		noPf := work + lat
		pf := work
		if lat > work {
			pf = lat
		}
		t.addf("%.0f\t%.0f\t%.0f\t%.2fx", cycles, noPf, pf, noPf/pf)
	}
	return cfg.emit(t, "prefetch_ablation.tsv")
}

// BitSplitAblation reproduces the §3.4.2 remark that clustering
// "performance strongly depends on even distribution of bits" over the
// passes: the same B and P with skewed schedules against the even
// split.
func BitSplitAblation(cfg Config) error {
	cfg = cfg.withDefaults()
	c := 1 << 20
	if cfg.CardOverride > 0 {
		c = cfg.CardOverride
	}
	const bits = 12
	splits := [][]int{
		core.EvenBitSplit(bits, 2), // 6+6: the recommendation
		{8, 4},
		{10, 2},
		{11, 1},
	}
	in := workload.UniquePairs(c, cfg.Seed)
	t := newTable(fmt.Sprintf("§3.4.2 ablation — bit distribution over 2 passes, B=%d, C=%s", bits, workload.Describe(c)),
		"split", "sim ms", "TLB misses", "L1 misses")
	for _, split := range splits {
		sim, err := cfg.newSim()
		if err != nil {
			return err
		}
		in.Unbind()
		in.Bind(sim)
		cl, err := core.RadixClusterSplitOpts(sim, in, split, nil, core.Serial())
		if err != nil {
			return err
		}
		if err := cl.Validate(); err != nil {
			return err
		}
		st := sim.Stats()
		t.addf("%v\t%s\t%s\t%s", split, ms(st.ElapsedMillis()), cnt(st.TLBMisses), cnt(st.L1Misses))
	}
	in.Unbind()
	return cfg.emit(t, "bitsplit_ablation.tsv")
}

// ModernAblation re-runs the Figure-13 strategy comparison on the
// extension "modern" profile: a 2020s-shaped CPU with an even wider
// CPU/DRAM gap. The paper's conclusion that cache-conscious algorithms
// win has only sharpened.
func ModernAblation(cfg Config) error {
	cfg = cfg.withDefaults()
	cfg.Machine = memsim.Modern()
	c := 1 << 21
	if cfg.CardOverride > 0 {
		c = cfg.CardOverride
	}
	t := newTable(fmt.Sprintf("extension — strategies on a modern profile, C=%s (simulated ms)", workload.Describe(c)),
		"strategy", "plan", "sim ms", "L2 misses", "TLB misses")
	for _, s := range []core.Strategy{core.SortMerge, core.SimpleHash, core.PhashL1, core.PhashMin, core.RadixMin} {
		plan := core.NewPlan(s, c, cfg.Machine)
		sim, err := cfg.newSim()
		if err != nil {
			return err
		}
		l, r := workload.JoinInputs(c, cfg.Seed)
		res, err := core.ExecuteOpts(sim, l, r, plan, nil, core.Serial())
		if err != nil {
			return err
		}
		if res.Len() != c {
			return fmt.Errorf("experiments: modern ablation %v: %d results", s, res.Len())
		}
		st := sim.Stats()
		t.addf("%s\t%s\t%s\t%s\t%s", s, plan, ms(st.ElapsedMillis()), cnt(st.L2Misses), cnt(st.TLBMisses))
	}
	return cfg.emit(t, "modern_ablation.tsv")
}

package experiments

import (
	"errors"
	"fmt"

	"monetlite/internal/core"
	"monetlite/internal/costmodel"
	"monetlite/internal/memsim"
	"monetlite/internal/workload"
)

// clusterPoint is one (B, P) measurement of the radix-cluster sweep.
type clusterPoint struct {
	bits, passes int
	stats        memsim.Stats
	model        costmodel.Breakdown
	skipped      bool
}

// Fig9 sweeps the radix-cluster tuning space of §3.4.2: number of
// bits B (x-axis), passes P ∈ 1..4, on one cardinality (8M tuples in
// the paper; 1M in quick mode). For each point it reports simulated
// milliseconds and L1/L2/TLB misses next to the Tc model.
func Fig9(cfg Config) error {
	cfg = cfg.withDefaults()
	card := 1 << 20
	maxBits := 18
	if cfg.Full {
		card = 8_000_000
		maxBits = 20
	}
	if cfg.CardOverride > 0 {
		card = cfg.CardOverride
		maxBits = 1
		for (1 << maxBits) < card {
			maxBits++
		}
	}
	in := workload.UniquePairs(card, cfg.Seed)
	model := costmodel.New(cfg.Machine)

	var points []clusterPoint
	for bits := 1; bits <= maxBits; bits++ {
		for passes := 1; passes <= 4 && passes <= bits; passes++ {
			sim, err := cfg.newSim()
			if err != nil {
				return err
			}
			in.Unbind()
			in.Bind(sim)
			p := clusterPoint{bits: bits, passes: passes, model: model.Tc(passes, bits, card)}
			if _, err := core.RadixClusterOpts(sim, in, bits, passes, nil, core.Serial()); err != nil {
				if errors.Is(err, memsim.ErrBudget) {
					p.skipped = true
				} else {
					return err
				}
			}
			p.stats = sim.Stats()
			points = append(points, p)
		}
	}
	in.Unbind()

	emit := func(title, tsv string, val func(clusterPoint) string, modelVal func(clusterPoint) string) error {
		headers := []string{"bits"}
		for p := 1; p <= 4; p++ {
			headers = append(headers, fmt.Sprintf("P=%d", p), fmt.Sprintf("P=%d model", p))
		}
		t := newTable(title, headers...)
		for bits := 1; bits <= maxBits; bits++ {
			row := []string{fmt.Sprintf("%d", bits)}
			for passes := 1; passes <= 4; passes++ {
				cell, mcell := "-", "-"
				for _, p := range points {
					if p.bits == bits && p.passes == passes {
						if p.skipped {
							cell = "skip"
						} else {
							cell = val(p)
						}
						mcell = modelVal(p)
					}
				}
				row = append(row, cell, mcell)
			}
			t.add(row...)
		}
		return cfg.emit(t, tsv)
	}

	title := fmt.Sprintf("Figure 9 — radix-cluster of %s tuples on origin2k", workload.Describe(card))
	if err := emit(title+": millisecs", "fig09_millisecs.tsv",
		func(p clusterPoint) string { return ms(p.stats.ElapsedMillis()) },
		func(p clusterPoint) string { return ms(p.model.Millis(cfg.Machine)) }); err != nil {
		return err
	}
	if err := emit(title+": TLB misses", "fig09_tlb.tsv",
		func(p clusterPoint) string { return cnt(p.stats.TLBMisses) },
		func(p clusterPoint) string { return cnt(uint64(p.model.TLBMisses)) }); err != nil {
		return err
	}
	if err := emit(title+": L1 misses", "fig09_l1.tsv",
		func(p clusterPoint) string { return cnt(p.stats.L1Misses) },
		func(p clusterPoint) string { return cnt(uint64(p.model.L1Misses)) }); err != nil {
		return err
	}
	return emit(title+": L2 misses", "fig09_l2.tsv",
		func(p clusterPoint) string { return cnt(p.stats.L2Misses) },
		func(p clusterPoint) string { return cnt(uint64(p.model.L2Misses)) })
}

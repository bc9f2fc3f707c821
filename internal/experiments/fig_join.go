package experiments

import (
	"errors"
	"fmt"

	"monetlite/internal/core"
	"monetlite/internal/costmodel"
	"monetlite/internal/memsim"
	"monetlite/internal/workload"
)

// joinCards returns the Figure-10/11 cardinality set for the scale.
func joinCards(cfg Config) []int {
	if cfg.CardOverride > 0 {
		return []int{cfg.CardOverride}
	}
	cards := []int{15625, 125000, 1000000}
	if cfg.Full {
		cards = append(cards, 8000000)
	}
	if cfg.Huge {
		cards = append(cards, 64000000)
	}
	return cards
}

// isolatedJoin runs the join phase only (Figures 10 and 11): the
// operands are pre-clustered natively (not instrumented, not timed),
// then the join runs on a fresh budgeted simulator.
func isolatedJoin(cfg Config, c, bits int, radix bool) (memsim.Stats, bool, error) {
	l, r := workload.JoinInputs(c, cfg.Seed+uint64(c))
	passes := 1
	if bits > 0 {
		passes = core.OptimalPasses(bits, cfg.Machine)
	}
	lc, err := core.RadixClusterOpts(nil, l, bits, passes, nil, core.Serial())
	if err != nil {
		return memsim.Stats{}, false, err
	}
	rc, err := core.RadixClusterOpts(nil, r, bits, passes, nil, core.Serial())
	if err != nil {
		return memsim.Stats{}, false, err
	}
	sim, err := cfg.newSim()
	if err != nil {
		return memsim.Stats{}, false, err
	}
	var res *core.JoinIndex
	if radix {
		res, err = core.RadixJoinClusteredOpts(sim, lc, rc, core.Serial())
	} else {
		res, err = core.PartitionedHashJoinClusteredOpts(sim, lc, rc, nil, core.Serial())
	}
	if err != nil {
		if errors.Is(err, memsim.ErrBudget) {
			return sim.Stats(), true, nil
		}
		return memsim.Stats{}, false, err
	}
	if res.Len() != c {
		return memsim.Stats{}, false, fmt.Errorf("experiments: join at C=%d B=%d produced %d pairs", c, bits, res.Len())
	}
	return sim.Stats(), false, nil
}

// bitRange returns the swept B values for a cardinality: every other
// bit up to just past log2(C), like the x-range of Figures 10/11.
func bitRange(c int) []int {
	maxB := 1
	for (1 << maxB) < c {
		maxB++
	}
	if maxB > core.MaxBits {
		maxB = core.MaxBits
	}
	var bits []int
	for b := 2; b <= maxB; b += 2 {
		bits = append(bits, b)
	}
	return bits
}

// figJoin renders one isolated-join figure.
func figJoin(cfg Config, radix bool, figName, tsvPrefix string, model func(m costmodel.Model, b, c int) costmodel.Breakdown) error {
	cfg = cfg.withDefaults()
	cm := costmodel.New(cfg.Machine)
	for _, c := range joinCards(cfg) {
		t := newTable(fmt.Sprintf("%s — C=%s: isolated join phase vs bits", figName, workload.Describe(c)),
			"bits", "clustersize", "ms", "model ms", "L1", "L2", "TLB", "model TLB")
		for _, b := range bitRange(c) {
			st, skipped, err := isolatedJoin(cfg, c, b, radix)
			if err != nil {
				return err
			}
			mb := model(cm, b, c)
			clSize := float64(c) / float64(uint64(1)<<b)
			if skipped {
				t.addf("%d\t%.1f\tskip\t%s\t-\t-\t-\t%s", b, clSize, ms(mb.Millis(cfg.Machine)), cnt(uint64(mb.TLBMisses)))
				continue
			}
			t.addf("%d\t%.1f\t%s\t%s\t%s\t%s\t%s\t%s",
				b, clSize, ms(st.ElapsedMillis()), ms(mb.Millis(cfg.Machine)),
				cnt(st.L1Misses), cnt(st.L2Misses), cnt(st.TLBMisses), cnt(uint64(mb.TLBMisses)))
		}
		if err := cfg.emit(t, fmt.Sprintf("%s_c%d.tsv", tsvPrefix, c)); err != nil {
			return err
		}
	}
	return nil
}

// Fig10 reproduces the isolated radix-join sweep of §3.4.3: for each
// cardinality, performance improves with B until the mean cluster
// size reaches a few tuples; large clusters explode L1 misses (and the
// access budget, mirroring the paper's 15-minute cap).
func Fig10(cfg Config) error {
	return figJoin(cfg, true, "Figure 10 — radix-join", "fig10_radixjoin",
		func(m costmodel.Model, b, c int) costmodel.Breakdown { return m.Tr(b, c) })
}

// Fig11 reproduces the isolated partitioned hash-join sweep of
// §3.4.3: performance improves steeply until the inner cluster plus
// hash table fits the TLB span and L2, flattens through the L1 fit,
// and turns back up when tiny clusters make table setup dominate.
func Fig11(cfg Config) error {
	return figJoin(cfg, false, "Figure 11 — partitioned hash-join", "fig11_phash",
		func(m costmodel.Model, b, c int) costmodel.Breakdown { return m.Th(b, c) })
}

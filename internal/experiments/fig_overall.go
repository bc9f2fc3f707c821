package experiments

import (
	"errors"
	"fmt"

	"monetlite/internal/core"
	"monetlite/internal/memsim"
	"monetlite/internal/workload"
)

// overallJoin runs cluster + join end to end on one budgeted sim.
func overallJoin(cfg Config, c, bits int, radix bool) (memsim.Stats, bool, error) {
	l, r := workload.JoinInputs(c, cfg.Seed+uint64(c))
	sim, err := cfg.newSim()
	if err != nil {
		return memsim.Stats{}, false, err
	}
	passes := 1
	if bits > 0 {
		passes = core.OptimalPasses(bits, cfg.Machine)
	}
	var jerr error
	if bits == 0 {
		_, jerr = core.SimpleHashJoin(sim, l, r, nil)
	} else if radix {
		_, jerr = core.RadixJoinOpts(sim, l, r, bits, passes, nil, core.Serial())
	} else {
		_, jerr = core.PartitionedHashJoinOpts(sim, l, r, bits, passes, nil, core.Serial())
	}
	if jerr != nil {
		if errors.Is(jerr, memsim.ErrBudget) {
			return sim.Stats(), true, nil
		}
		return memsim.Stats{}, false, jerr
	}
	return sim.Stats(), false, nil
}

// fig12Cards returns the Figure-12 cardinalities for the scale.
func fig12Cards(cfg Config) []int {
	if cfg.CardOverride > 0 {
		return []int{cfg.CardOverride}
	}
	cards := []int{15625, 250000, 1000000}
	if cfg.Full {
		cards = append(cards, 4000000, 16000000)
	}
	if cfg.Huge {
		cards = append(cards, 64000000)
	}
	return cards
}

// Fig12 reproduces the overall cluster+join tradeoff of §3.4.4: for
// each cardinality, total time of radix-join and partitioned hash-join
// across the whole bit range (with the optimal pass count per B), plus
// the B each named strategy prescribes.
func Fig12(cfg Config) error {
	cfg = cfg.withDefaults()
	for _, c := range fig12Cards(cfg) {
		t := newTable(fmt.Sprintf("Figure 12 — overall cluster+join, C=%s (ms; optimal passes per B)", workload.Describe(c)),
			"bits", "passes", "phash ms", "radix ms")
		for _, b := range bitRange(c) {
			passes := core.OptimalPasses(b, cfg.Machine)
			ph, phSkip, err := overallJoin(cfg, c, b, false)
			if err != nil {
				return err
			}
			rj, rjSkip, err := overallJoin(cfg, c, b, true)
			if err != nil {
				return err
			}
			phCell, rjCell := ms(ph.ElapsedMillis()), ms(rj.ElapsedMillis())
			if phSkip {
				phCell = "skip"
			}
			if rjSkip {
				rjCell = "skip"
			}
			t.addf("%d\t%d\t%s\t%s", b, passes, phCell, rjCell)
		}
		if err := cfg.emit(t, fmt.Sprintf("fig12_overall_c%d.tsv", c)); err != nil {
			return err
		}

		// The strategy diagonals of the figure: which B each §3.4.4
		// strategy picks at this cardinality.
		d := newTable(fmt.Sprintf("Figure 12 — strategy settings at C=%s", workload.Describe(c)),
			"strategy", "bits", "passes")
		for _, s := range []core.Strategy{core.PhashL2, core.PhashTLB, core.PhashL1, core.Phash256, core.PhashMin, core.Radix8, core.RadixMin} {
			p := core.NewPlan(s, c, cfg.Machine)
			d.addf("%s\t%d\t%d", s, p.Bits, p.Passes)
		}
		if err := cfg.emit(d, fmt.Sprintf("fig12_strategies_c%d.tsv", c)); err != nil {
			return err
		}
	}
	return nil
}

// fig13Cards returns the Figure-13 x axis for the scale (cardinality
// in thousands: 16 … 65536 in the paper).
func fig13Cards(cfg Config) []int {
	if cfg.CardOverride > 0 {
		return []int{cfg.CardOverride}
	}
	cards := []int{16000, 64000, 256000, 1024000}
	if cfg.Full {
		cards = append(cards, 4096000, 16384000)
	}
	if cfg.Huge {
		cards = append(cards, 65536000)
	}
	return cards
}

// Fig13 reproduces the overall algorithm comparison: every §3.4.4
// strategy (plus the sort-merge and non-partitioned hash baselines)
// across cardinalities, total simulated milliseconds.
func Fig13(cfg Config) error {
	cfg = cfg.withDefaults()
	strategies := core.Strategies()
	headers := []string{"cardinality"}
	for _, s := range strategies {
		headers = append(headers, s.String())
	}
	headers = append(headers, "auto pick")
	t := newTable("Figure 13 — overall algorithm comparison (total simulated ms)", headers...)
	for _, c := range fig13Cards(cfg) {
		row := []string{workload.Describe(c)}
		l, r := workload.JoinInputs(c, cfg.Seed+uint64(c))
		for _, s := range strategies {
			plan := core.NewPlan(s, c, cfg.Machine)
			sim, err := cfg.newSim()
			if err != nil {
				return err
			}
			l.Unbind()
			r.Unbind()
			res, err := core.ExecuteOpts(sim, l, r, plan, nil, core.Serial())
			switch {
			case err != nil && errors.Is(err, memsim.ErrBudget):
				row = append(row, "skip")
				continue
			case err != nil:
				return err
			case res.Len() != c:
				return fmt.Errorf("experiments: %v at C=%d: %d results", s, c, res.Len())
			}
			row = append(row, ms(sim.Stats().ElapsedMillis()))
		}
		row = append(row, core.PlanAuto(c, cfg.Machine).String())
		t.add(row...)
	}
	return cfg.emit(t, "fig13_comparison.tsv")
}

package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// benchSpec is the part of BENCHMARK.json that -compare needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// What makes a run too noisy to compare. canaryTolerance separates the two
// kinds of run seen on the box the harness was written on (README.md, "A/A
// procedure"): in 63 quiet runs no canary was further than 18% from its
// median, in the runs whose query_ms_p50 was off by a quarter or more one was
// off by 29% to 340%. driftLimit is the drift_share beyond which the first
// and second half of a run's own samples disagree.
const (
	canaryTolerance = 0.20
	driftLimit      = 0.10
)

// errUnresolved is returned when nothing regressed but some pairing could
// not be judged; main turns it into exit code 2.
var errUnresolved = errors.New("comparison unresolved")

// noisyReason says why two runs of one workload cannot be compared: a host
// canary, measured in the timed passes' own processes, moved by more than
// canaryTolerance, or either run drifted.
func noisyReason(a, b *workloadReport) string {
	names := make([]string, 0, len(a.Host))
	for name := range a.Host {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ma, mb := a.Host[name], b.Host[name]
		if mb == nil || ma.Median == 0 {
			continue
		}
		if move := math.Abs(mb.Median-ma.Median) / math.Abs(ma.Median); move > canaryTolerance {
			return fmt.Sprintf("%s moved %.0f%%", name, move*100)
		}
	}
	for _, r := range []*workloadReport{a, b} {
		if d := r.PerLayer["harness.drift_share"]; d != nil && d.Median > driftLimit {
			return fmt.Sprintf("harness.drift_share %.2f", d.Median)
		}
	}
	return ""
}

// comparable refuses two reports that did not run the same work: another
// seed, another -seconds, or a workload with other table sizes or round
// counts.
func comparable(a, b *report) error {
	if a.Seed != b.Seed || a.Seconds != b.Seconds {
		return fmt.Errorf("reports differ in seed or seconds: seed %d, %g s against seed %d, %g s", a.Seed, a.Seconds, b.Seed, b.Seconds)
	}
	for name, wa := range a.Workloads {
		wb := b.Workloads[name]
		if wb == nil {
			return fmt.Errorf("%s is in only one of the reports", name)
		}
		for _, p := range [][2]detail{{wa.Timed, wb.Timed}, {wa.Traced, wb.Traced}} {
			if p[0].ItemRows != p[1].ItemRows || p[0].Rounds != p[1].Rounds {
				return fmt.Errorf("%s ran different work: %d rows, %d rounds against %d rows, %d rounds",
					name, p[0].ItemRows, p[0].Rounds, p[1].ItemRows, p[1].Rounds)
			}
		}
	}
	if len(a.Workloads) != len(b.Workloads) {
		return fmt.Errorf("the reports cover %d and %d workloads", len(a.Workloads), len(b.Workloads))
	}
	return nil
}

// compareReports prints, per end-to-end metric and workload, both medians,
// the ratio with its base and a verdict from the bounds of BENCHMARK.json.
// It fails when anything regressed, and with errUnresolved when nothing did
// but something could not be judged.
func compareReports(home, pathA, pathB string) error {
	var spec benchSpec
	if err := readJSON(filepath.Join(home, "..", "..", "BENCHMARK.json"), &spec); err != nil {
		return err
	}
	var a, b report
	if err := readJSON(pathA, &a); err != nil {
		return err
	}
	if err := readJSON(pathB, &b); err != nil {
		return err
	}
	if err := comparable(&a, &b); err != nil {
		return err
	}
	names := make([]string, 0, len(a.Workloads))
	for name := range a.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	regressed, unresolved := 0, 0
	// The spread columns are each side's inter-quartile distance over its
	// runs: a move inside the bound but well outside them is still a move.
	fmt.Printf("%-15s %-20s %12s %7s %12s %7s  %-22s %s\n", "workload", "metric", "a (base)", "spread", "b", "spread", "b/a", "verdict")
	for _, w := range names {
		wa, wb := a.Workloads[w], b.Workloads[w]
		reason := noisyReason(wa, wb)
		for _, em := range spec.EndToEnd {
			ma, mb := wa.EndToEnd[em.Name], wb.EndToEnd[em.Name]
			if ma == nil || mb == nil {
				continue
			}
			why := reason
			for _, mr := range []*metricRuns{ma, mb} { // a spread wider than the bound resolves nothing
				if why == "" && len(mr.Values) >= 4 && iqrShare(mr.Values) > em.Bound {
					why = fmt.Sprintf("spread %.0f%% > bound", iqrShare(mr.Values)*100)
				}
			}
			v := verdict(ma.Median, mb.Median, em.Bound, em.Better == "lower", why != "")
			switch v {
			case "regressed":
				regressed++
			case "unresolved":
				unresolved++
			}
			if why != "" {
				v += " (" + why + ")"
			}
			fmt.Printf("%-15s %-20s %12.6g %6.1f%% %12.6g %6.1f%%  %-22s %s\n", w, em.Name,
				ma.Median, iqrShare(ma.Values)*100, mb.Median, iqrShare(mb.Values)*100,
				fmt.Sprintf("%.3fx of %.4g %s", mb.Median/ma.Median, ma.Median, em.Unit), v)
		}
		if wa.ErrorShare < wb.ErrorShare {
			fmt.Printf("%-15s %-20s %12.6g %7s %12.6g %7s  %-22s regressed\n", w, "error_share", wa.ErrorShare, "", wb.ErrorShare, "", "any increase")
			regressed++
		}
	}
	switch {
	case regressed > 0:
		return fmt.Errorf("%d metric(s) regressed, %d unresolved", regressed, unresolved)
	case unresolved > 0:
		return fmt.Errorf("%w: %d pairing(s)", errUnresolved, unresolved)
	}
	return nil
}

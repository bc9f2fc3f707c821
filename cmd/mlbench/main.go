// Command mlbench is the repository's one benchmark harness: four named
// workloads run in a closed loop with one client through the root
// monetlite.Query builder, every result checked against a row-at-a-time
// oracle, end-to-end metrics from an untraced timed pass and per-layer
// metrics from a separate traced pass. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// result is the last line of a single pass's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// detail is printed on the line before the result, prefixed detailPrefix,
// for the full run's report.
type detail struct {
	ItemRows  int               `json:"item_rows"`
	Rounds    int               `json:"rounds"` // timed pass: whole rounds; traced pass: rounds in each mode
	Templates []templateDetail  `json:"templates"`
	Traced    bool              `json:"tracing_and_profiling"`    // false: no span or profile code ran in the pass
	RSSReset  bool              `json:"rss_peak_reset,omitempty"` // timed pass: VmHWM restarted after set-up
	Host      map[string]metric `json:"host,omitempty"`           // timed pass: canaries taken after its queries
}

const detailPrefix = "#detail "

func main() {
	var cfg config
	seed := flag.Uint64("seed", 1, "seed of table data and parameter pools")
	name := flag.String("workload", "", "workload to run (default: all four)")
	flag.Float64Var(&cfg.seconds, "seconds", defaultSeconds, "scales every pass's fixed round count (workloads.go); the counts are sized so a timed pass takes about this long")
	trace := flag.Int("trace", -1, "single pass in this process: 0 timed (end-to-end metrics), 1 traced (per-layer metrics); default: both, one child process each")
	runs := flag.Int("runs", 1, "full run: repetitions of each workload")
	out := flag.String("out", "", "full run: report file (default <outdir>/report.json)")
	flag.StringVar(&cfg.outDir, "outdir", "", "directory for traces and the report (default <home>/out)")
	flag.StringVar(&cfg.home, "home", "", "the cmd/mlbench directory (default: found from the working directory)")
	compare := flag.Bool("compare", false, "compare two reports: mlbench -compare a.json b.json (exit 1: regressed, 2: unresolved)")
	golden := flag.Bool("golden", false, "print each template's normalized plan (the content of testdata/plans.golden)")
	flag.Parse()
	cfg.seed = *seed
	runtime.GOMAXPROCS(workers)

	if cfg.home == "" {
		for _, dir := range []string{".", "cmd/mlbench"} {
			if _, err := os.Stat(filepath.Join(dir, "testdata", "machine.json")); err == nil {
				cfg.home = dir
				break
			}
		}
	}
	if cfg.outDir == "" {
		cfg.outDir = filepath.Join(cfg.home, "out")
	}
	err := func() error {
		switch {
		case cfg.home == "":
			return fmt.Errorf("cannot find testdata/machine.json; run from the repository root or pass -home")
		case *compare:
			if flag.NArg() != 2 {
				return fmt.Errorf("usage: mlbench -compare a.json b.json")
			}
			return compareReports(cfg.home, flag.Arg(0), flag.Arg(1))
		case *golden:
			return printGolden(cfg)
		case *trace == 0 || *trace == 1:
			def, err := findWorkload(*name)
			if err != nil {
				return err
			}
			return singlePass(def, cfg, *trace == 1)
		default:
			return fullRun(cfg, *name, *runs, *out)
		}
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mlbench:", err)
		if errors.Is(err, errUnresolved) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// singlePass sets one workload up, runs one pass and prints every metric by
// name with its unit, then the detail line and the result line.
func singlePass(def *workloadDef, cfg config, traced bool) error {
	cfg.rounds = def.roundsFor(cfg.seconds)
	builds := tableBuilds
	if traced {
		builds = 1
	}
	e, times, setupFailed, err := setUp(def, cfg, builds)
	if err != nil {
		return err
	}

	res := result{}
	det := detail{ItemRows: e.item.N, Traced: traced}
	var m, host *metricSet
	if traced {
		det.Rounds = cfg.tracedRounds()
		if m, res.Attempted, res.Failed, det.Templates, err = e.tracedPass(cfg, times); err != nil {
			return err
		}
	} else {
		det.Rounds = cfg.rounds
		e.dropRows()
		debug.FreeOSMemory() // set-up's garbage must not sit in the resident set the pass reports
		st := e.timedPass(cfg.rounds)
		det.RSSReset = st.rssReset
		m = endToEnd(st, times.total())
		res.Attempted, res.Failed = st.queries, st.failed
		det.Templates = e.templateDetails(st.ms, nil)
		host = measureHost(cfg)
		det.Host = host.byName
	}
	res.Attempted += len(e.specs) * paramSets // set-up ran every parameter set once
	res.Failed += setupFailed
	res.Correct = res.Failed == 0
	res.Metrics = m.byName

	fmt.Printf("workload %s  seed %d  GOMAXPROCS %d  Parallel(%d)  tracing %v  profiling %v\n",
		def.name, cfg.seed, runtime.GOMAXPROCS(0), workers, traced, traced)
	for _, t := range det.Templates {
		fmt.Printf("  %-3s %6d samples  p50 %10.4f ms  p90 %10.4f ms  %s\n", t.Name, t.Samples, t.P50MS, t.P90MS, t.SQL)
	}
	for _, n := range m.names {
		fmt.Printf("%-38s %16.6g %s\n", n, m.byName[n].Value, m.byName[n].Unit)
	}
	if host != nil {
		for _, n := range host.names {
			fmt.Printf("%-38s %16.6g %s (this process, after the pass)\n", n, host.byName[n].Value, host.byName[n].Unit)
		}
	}
	fmt.Printf("%-38s %16.6g %s\n", "error_share", float64(res.Failed)/float64(res.Attempted), "ratio")
	dj, err := json.Marshal(det)
	if err != nil {
		return err
	}
	fmt.Println(detailPrefix + string(dj))
	rj, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(rj))
	return nil
}

// printGolden prints the normalized plans of every template at full size.
func printGolden(cfg config) error {
	for i := range workloadDefs {
		def := &workloadDefs[i]
		e, _, _, err := setUp(def, cfg, 1)
		if err != nil {
			return err
		}
		plans, err := e.plans()
		if err != nil {
			return err
		}
		for ti, p := range plans {
			fmt.Printf("== %s/%s\n%s\n", def.name, def.templates[ti].name, p)
		}
	}
	return nil
}

// report is the full run's output file and the input of -compare.
type report struct {
	Schema     string                     `json:"schema"`
	Claim      *string                    `json:"claim"` // a benchmark-defining change claims no gain
	Seed       uint64                     `json:"seed"`
	Seconds    float64                    `json:"seconds"`
	Runs       int                        `json:"runs"`
	GoMaxProcs int                        `json:"gomaxprocs"`
	Parallel   int                        `json:"parallel"`
	GoVersion  string                     `json:"go_version"`
	Workloads  map[string]*workloadReport `json:"workloads"`
}

type workloadReport struct {
	Why        string                 `json:"why"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	ErrorShare float64                `json:"error_share"`
	EndToEnd   map[string]*metricRuns `json:"end_to_end"`
	Host       map[string]*metricRuns `json:"end_to_end_host"` // canaries of the timed passes' own processes
	PerLayer   map[string]*metricRuns `json:"per_layer"`
	Timed      detail                 `json:"timed_pass"` // of the last run
	Traced     detail                 `json:"traced_pass"`
}

// metricRuns is one metric's value in every run, with their median.
type metricRuns struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
}

// record appends one pass's values to the runs of each metric.
func record(section map[string]*metricRuns, values map[string]metric) {
	for name, mv := range values {
		mr := section[name]
		if mr == nil {
			mr = &metricRuns{Unit: mv.Unit}
			section[name] = mr
		}
		mr.Values = append(mr.Values, mv.Value)
		mr.Median = median(mr.Values)
	}
}

// fullRun runs every selected workload runs times, each pass in a child
// process of its own so that heap state and rss_peak_mb do not leak between
// passes, and writes the report.
func fullRun(cfg config, only string, runs int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	rep := report{Schema: "mlbench/1", Seed: cfg.seed, Seconds: cfg.seconds, Runs: runs,
		GoMaxProcs: workers, Parallel: workers, GoVersion: runtime.Version(), Workloads: map[string]*workloadReport{}}
	for i := range workloadDefs {
		def := &workloadDefs[i]
		if only != "" && only != def.name {
			continue
		}
		wr := &workloadReport{Why: def.why, EndToEnd: map[string]*metricRuns{}, Host: map[string]*metricRuns{}, PerLayer: map[string]*metricRuns{}}
		rep.Workloads[def.name] = wr
		for run := 0; run < runs; run++ {
			for trace, section := range []map[string]*metricRuns{wr.EndToEnd, wr.PerLayer} {
				cmd := exec.Command(self, "-home", cfg.home, "-outdir", cfg.outDir, "-workload", def.name,
					"-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds), "-trace", fmt.Sprint(trace))
				cmd.Stderr = os.Stderr
				stdout, err := cmd.Output()
				os.Stdout.Write(stdout)
				if err != nil {
					return fmt.Errorf("%s (trace %d): %w", def.name, trace, err)
				}
				lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
				var res result
				var det detail
				if len(lines) < 2 || !strings.HasPrefix(lines[len(lines)-2], detailPrefix) {
					return fmt.Errorf("%s (trace %d): no detail line", def.name, trace)
				}
				if err := json.Unmarshal([]byte(strings.TrimPrefix(lines[len(lines)-2], detailPrefix)), &det); err != nil {
					return err
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					return err
				}
				wr.Attempted += res.Attempted
				wr.Failed += res.Failed
				record(section, res.Metrics)
				record(wr.Host, det.Host)
				if trace == 0 {
					wr.Timed = det
				} else {
					wr.Traced = det
				}
			}
		}
		wr.ErrorShare = float64(wr.Failed) / float64(wr.Attempted)
	}
	if len(rep.Workloads) == 0 {
		return fmt.Errorf("unknown workload %q", only)
	}
	if out == "" {
		out = filepath.Join(cfg.outDir, "report.json")
	}
	data, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("report:", out)
	for name, wr := range rep.Workloads {
		if wr.Failed > 0 {
			return fmt.Errorf("%s: error_share %g (%d of %d queries failed)", name, wr.ErrorShare, wr.Failed, wr.Attempted)
		}
	}
	return nil
}

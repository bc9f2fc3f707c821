// Command mlquery runs a canned query set over the Figure-4 Item
// workload through the cost-model-driven BAT-algebra engine
// (internal/engine), printing each query's EXPLAIN — the physical
// operator tree with the model-chosen access paths, pipelines, join
// algorithm and radix bits, and per-operator predicted cost —
// next to its native wall-clock timing, and, with -sim, the simulated
// cost on the chosen machine profile so prediction and measurement sit
// side by side.
//
// Usage:
//
//	mlquery [-rows 1048576] [-parts 2000] [-machine origin2k] [-sim]
//	        [-par 0] [-agg auto|hash|radix]
//	        [-verify] [-json] [-analyze] [-trace out.json]
//	        [-calib out.json] [-learn in.json] [-top 10]
//	mlquery -calibrate[=file] [-calshort]
//
// -par bounds the worker goroutines of the whole native operator tree
// (morsel-driven parallelism; 0 = GOMAXPROCS, 1 = serial). -agg forces
// the grouping algorithm of every GROUP BY (auto = the cost-model
// choice; radix is the partitioned strategy Q6 exists to showcase).
// -verify additionally runs every query serially AND with the grouping
// strategy forced to radix (parallel and serial) and to hash, checking
// the serial and radix runs byte-identical and hash equivalent — the
// operator-level smoke test CI runs on every push. -json writes one machine-readable report (per-query
// native ms — the minimum of three runs, all three recorded — result
// rows, predicted ms, allocation stats — B/op, allocs/op — the chosen
// grouping strategy with, when it is radix, a forced-hash comparison
// run, and, with -sim, the simulated ms and miss counts) to stdout
// instead of the human output: CI's per-push perf snapshot.
//
// -analyze is EXPLAIN ANALYZE: every query additionally runs with
// per-operator execution profiling (actual wall time, rows, memory
// traffic in cost-model width units, allocations, per-worker busy
// time), printed as an annotated operator tree — or, with -json,
// embedded as an "analyze" block per query. -trace writes the same
// profiles as one Chrome-trace JSON (chrome://tracing, Perfetto; one
// process per query, one thread row per worker plus an "operators"
// row). All three imply profiled runs; the reported native timings
// always come from unprofiled runs.
//
// The self-tuning loop is three flags working together:
//
//   - mlquery -calibrate[=file] measures the running machine — the
//     paper's Calibrator (§3.4.3) — validates the result against the
//     calibration sanity invariants, writes it as a JSON machine
//     profile (default ./monetlite-host.json, the search path of
//     -machine host) and exits. -calshort uses reduced sweeps for CI
//     smoke jobs.
//   - mlquery -calib out.json aggregates per-operator-kind
//     predicted-vs-actual ratios from profiled runs of the query set
//     into a residual file (costmodel.Residuals).
//   - mlquery -learn in.json loads such a residual file back and
//     multiplies the learned per-kind corrections into every
//     prediction of this run — planning choices, EXPLAIN output and
//     the -json predicted_ms all shift toward observed reality.
//
// So `mlquery -calibrate && mlquery -machine host -calib r.json &&
// mlquery -machine host -learn r.json` goes from canned 1999 numbers
// to a host-calibrated, residual-corrected cost model in three runs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"reflect"
	"runtime"
	"strings"
	"time"

	"monetlite"
	"monetlite/internal/costmodel"
	"monetlite/internal/engine"
	"monetlite/internal/memsim"
)

// query is one canned query: a name, the SQL it stands for, and its
// builder.
type query struct {
	name  string
	sql   string
	build func() *monetlite.QueryBuilder
}

// queryReport is one query's entry in the -json output. The simulated
// fields are present only under -sim; the hash_agg_* fields only when
// the planner chose radix grouping (a forced-hash comparison run, so
// the radix-vs-hash gap is recorded in the same snapshot).
type queryReport struct {
	Name string `json:"name"`
	SQL  string `json:"sql"`
	// NativeMS is the minimum of NativeMSRuns — the least-noise
	// estimate; earlier snapshots recorded a single run here, so the
	// field keeps its name and meaning (a native wall-clock ms).
	NativeMS     float64         `json:"native_ms"`
	NativeMSRuns []float64       `json:"native_ms_runs,omitempty"`
	Analyze      *engine.Profile `json:"analyze,omitempty"`
	ResultRows   int             `json:"result_rows"`
	PredictedMS  float64         `json:"predicted_ms"`
	// PredictionErrorFactor is max(predicted/native, native/predicted)
	// ≥ 1 — how far the cost model's prediction is off, direction
	// ignored. The report's geomean of these is the calibration
	// quality metric tracked across BENCH snapshots.
	PredictionErrorFactor float64  `json:"prediction_error_factor"`
	BytesPerOp            uint64   `json:"bytes_per_op"`
	AllocsPerOp           uint64   `json:"allocs_per_op"`
	AggStrategy           string   `json:"agg_strategy,omitempty"`
	HashAggMS             *float64 `json:"hash_agg_ms,omitempty"`
	HashAggBPO            *uint64  `json:"hash_agg_bytes_per_op,omitempty"`
	HashAggAPO            *uint64  `json:"hash_agg_allocs_per_op,omitempty"`
	SimMS                 *float64 `json:"simulated_ms,omitempty"`
	SimL1                 *uint64  `json:"simulated_l1_misses,omitempty"`
	SimL2                 *uint64  `json:"simulated_l2_misses,omitempty"`
	SimTLB                *uint64  `json:"simulated_tlb_misses,omitempty"`
}

// machineInfo is the -json "machine" block: which profile priced the
// plans and where it came from.
type machineInfo struct {
	Name string `json:"name"`
	// Source is "canned" for built-in profiles or "calibrated" when
	// the profile was loaded from a calibration file (File).
	Source string `json:"source"`
	File   string `json:"file,omitempty"`
	// Corrections holds the learned per-operator-kind multipliers
	// applied via -learn (absent when running uncorrected).
	Corrections map[string]float64 `json:"corrections,omitempty"`
	LearnedFrom string             `json:"learned_from,omitempty"`
}

// report is the top-level -json document.
type report struct {
	Rows    int         `json:"rows"`
	Parts   int         `json:"parts"`
	Machine machineInfo `json:"machine"`
	Workers int         `json:"workers"`
	GoMaxP  int         `json:"gomaxprocs"`
	// PredictionErrorGeomean is the geometric mean of the per-query
	// prediction_error_factor values — 1.0 would be a perfect model.
	PredictionErrorGeomean float64       `json:"prediction_error_geomean"`
	Queries                []queryReport `json:"queries"`
}

// optionalPath is a flag that can be given bare (-calibrate → default
// path) or with a value (-calibrate=custom.json).
type optionalPath struct {
	set  bool
	path string
}

func (o *optionalPath) String() string   { return o.path }
func (o *optionalPath) IsBoolFlag() bool { return true }
func (o *optionalPath) Set(v string) error {
	o.set = true
	if v != "true" { // bare -calibrate arrives as the literal "true"
		o.path = v
	}
	return nil
}

func main() {
	rows := flag.Int("rows", 1<<20, "Item table cardinality")
	nparts := flag.Int("parts", 2000, "Part dimension cardinality")
	machine := flag.String("machine", "origin2k", "machine profile for planning (and -sim)")
	simulate := flag.Bool("sim", false, "also run instrumented on the machine's simulator")
	var workers int
	flag.IntVar(&workers, "par", 0, "worker goroutines for every plan operator (0 = GOMAXPROCS, 1 = serial)")
	flag.IntVar(&workers, "workers", 0, "alias for -par")
	aggMode := flag.String("agg", "auto", "grouping algorithm: \"auto\" (cost model), \"hash\" or \"radix\"")
	verify := flag.Bool("verify", false, "cross-check each result byte-identical to a serial run and the forced radix/hash grouping runs")
	jsonOut := flag.Bool("json", false, "emit a machine-readable per-query report (timings + B/op, allocs/op) to stdout")
	analyze := flag.Bool("analyze", false, "EXPLAIN ANALYZE: profile every query and print per-operator actuals (or embed them in -json)")
	traceOut := flag.String("trace", "", "write per-query execution profiles as one Chrome-trace JSON to this file")
	calibOut := flag.String("calib", "", "write aggregated predicted-vs-actual residuals (cost-model calibration feed) to this file")
	var calibrateTo optionalPath
	flag.Var(&calibrateTo, "calibrate", "measure this machine's cache/TLB geometry and latencies, write the profile (default ./monetlite-host.json) and exit")
	calShort := flag.Bool("calshort", false, "use reduced calibration sweeps (CI smoke; only with -calibrate)")
	learnFrom := flag.String("learn", "", "apply learned per-operator-kind corrections from this -calib residual file to every prediction")
	top := flag.Int("top", 10, "result rows to print per query")
	flag.Parse()

	if calibrateTo.set {
		runCalibration(calibrateTo.path, *calShort)
		return
	}

	m, err := monetlite.MachineByName(*machine)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *rows <= 0 || *nparts <= 0 {
		fmt.Fprintln(os.Stderr, "mlquery: -rows and -parts must be positive")
		os.Exit(2)
	}

	// The unified cost model every planning decision goes through:
	// the (possibly calibrated) machine, plus learned per-kind
	// corrections when -learn provides them.
	model := monetlite.NewCostModel(m)
	mInfo := machineInfo{Name: m.Name, Source: "canned"}
	if m.Name == memsim.HostName {
		if _, path, err := memsim.LoadHost(); err == nil {
			mInfo.Source, mInfo.File = "calibrated", path
		}
	}
	if *learnFrom != "" {
		raw, err := os.ReadFile(*learnFrom)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mlquery: -learn: %v\n", err)
			os.Exit(2)
		}
		var resi monetlite.Residuals
		if err := json.Unmarshal(raw, &resi); err != nil {
			fmt.Fprintf(os.Stderr, "mlquery: -learn %s: %v\n", *learnFrom, err)
			os.Exit(2)
		}
		model, err = model.WithResiduals(&resi)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mlquery: -learn %s: %v\n", *learnFrom, err)
			os.Exit(2)
		}
		mInfo.Corrections = model.Corrections()
		mInfo.LearnedFrom = *learnFrom
	}
	aggForce := ""
	switch *aggMode {
	case "auto":
	case "hash", "radix":
		aggForce = *aggMode
	default:
		fmt.Fprintf(os.Stderr, "mlquery: -agg must be \"auto\", \"hash\" or \"radix\", got %q\n", *aggMode)
		os.Exit(2)
	}
	say := func(format string, args ...any) {
		if !*jsonOut {
			fmt.Printf(format, args...)
		}
	}

	say("generating item(%d rows) and part(%d rows)...\n", *rows, *nparts)
	t0 := time.Now()
	items, err := monetlite.ItemTable(*rows, 42)
	if err != nil {
		log.Fatal(err)
	}
	parts, err := monetlite.PartTable(*nparts, 7)
	if err != nil {
		log.Fatal(err)
	}
	say("done in %v; item decomposed to %d bytes/tuple (N-ary record: %d)\n\n",
		time.Since(t0).Round(time.Millisecond), items.BUNWidth(), items.Schema.RowWidth())

	revenue := monetlite.Mul(monetlite.Col("price"),
		monetlite.Sub(monetlite.Const(1), monetlite.Col("discnt")))
	// Q2's point range sits mid-domain whatever the cardinality
	// (order values are 1000 .. 1000+rows-1).
	orderLo := int64(1000 + *rows/2)

	queries := []query{
		{
			name: "Q1 revenue by shipmode",
			sql: "SELECT shipmode, COUNT(*), SUM(price*(1-discnt)) FROM item\n" +
				"WHERE date1 BETWEEN 8500 AND 9499 GROUP BY shipmode",
			build: func() *monetlite.QueryBuilder {
				return monetlite.Query(items).
					WhereRange("date1", 8500, 9499).
					GroupBy("shipmode", revenue)
			},
		},
		{
			name: "Q2 point lookup via index",
			sql: fmt.Sprintf("SELECT order, qty, price, shipmode FROM item\n"+
				"WHERE order BETWEEN %d AND %d", orderLo, orderLo+19),
			build: func() *monetlite.QueryBuilder {
				return monetlite.Query(items).
					WhereRange("order", orderLo, orderLo+19).
					Select("order", "qty", "price", "shipmode")
			},
		},
		{
			name: "Q3 select-join-aggregate",
			sql: "SELECT p.category, COUNT(*), SUM(i.price*(1-i.discnt)) FROM item i, part p\n" +
				"WHERE i.date1 BETWEEN 8500 AND 9499 AND i.shipmode = 'MAIL' AND i.part = p.id\n" +
				"GROUP BY p.category ORDER BY SUM DESC",
			build: func() *monetlite.QueryBuilder {
				return monetlite.Query(items).
					WhereRange("date1", 8500, 9499).
					WhereString("shipmode", "MAIL").
					JoinTable(parts, "part", "id").
					GroupBy("category", revenue).
					OrderBy("sum", true)
			},
		},
		{
			name: "Q4 full join, top categories by margin",
			sql: "SELECT p.category, COUNT(*), SUM(p.retail - i.price) FROM item i, part p\n" +
				"WHERE i.part = p.id GROUP BY p.category ORDER BY SUM DESC",
			build: func() *monetlite.QueryBuilder {
				return monetlite.Query(items).
					JoinTable(parts, "part", "id").
					GroupBy("category", monetlite.Sub(monetlite.Col("retail"), monetlite.Col("price"))).
					OrderBy("sum", true)
			},
		},
		{
			name: "Q5 top-20 mail orders by date (limit probe)",
			sql: "SELECT order, date1, price FROM item WHERE shipmode = 'MAIL'\n" +
				"AND date1 BETWEEN 8500 AND 9499 LIMIT 20",
			build: func() *monetlite.QueryBuilder {
				return monetlite.Query(items).
					WhereString("shipmode", "MAIL").
					WhereRange("date1", 8500, 9499).
					Select("order", "date1", "price").
					Limit(20)
			},
		},
		{
			// Q6 is the radix-aggregation showcase: cust is a uniformly
			// random key with ~rows/2 distinct values, so the monolithic
			// grouping hash table is orders of magnitude past the caches
			// and every probe is a RAM-latency miss — exactly the regime
			// where the planner flips to GroupAggregate[radix bits=B].
			name: "Q6 revenue by customer (high-cardinality group)",
			sql: "SELECT cust, COUNT(*), SUM(price*(1-discnt)) FROM item\n" +
				"GROUP BY cust",
			build: func() *monetlite.QueryBuilder {
				return monetlite.Query(items).
					GroupBy("cust", revenue)
			},
		},
	}

	// One simulator for the whole session: column BATs bind to the
	// first sim they see and stay bound, so per-query costs are deltas
	// of the shared counters (caches stay warm across queries, like a
	// real session).
	var sim *monetlite.Sim
	if *simulate {
		sim, err = monetlite.NewSim(m)
		if err != nil {
			log.Fatal(err)
		}
	}

	rep := report{
		Rows: *rows, Parts: *nparts, Machine: mInfo,
		Workers: workers, GoMaxP: runtime.GOMAXPROCS(0),
	}

	profiling := *analyze || *traceOut != "" || *calibOut != ""
	var traceEvents []engine.TraceEvent
	residuals := costmodel.NewResiduals(m.Name)

	for qi, q := range queries {
		say("=== %s ===\n%s\n\n", q.name, q.sql)
		b := q.build().CostModel(&model).Parallel(workers).GroupStrategy(aggForce)
		plan, err := b.Plan()
		if err != nil {
			log.Fatal(err)
		}
		if !*jsonOut {
			fmt.Print(plan.Explain())
		}

		// Native timing: the minimum of three runs (the least-noise
		// estimate on a shared machine); the first run provides the
		// result the verification and printing below use.
		const timingRuns = 3
		var res *monetlite.QueryResult
		msRuns := make([]float64, 0, timingRuns)
		for i := 0; i < timingRuns; i++ {
			t0 := time.Now()
			r, err := plan.Run(nil)
			if err != nil {
				log.Fatal(err)
			}
			msRuns = append(msRuns, float64(time.Since(t0).Nanoseconds())/1e6)
			if i == 0 {
				res = r
			}
		}
		nativeMS := msRuns[0]
		for _, v := range msRuns[1:] {
			if v < nativeMS {
				nativeMS = v
			}
		}
		say("\nnative: %.2f ms (min of %d runs), %d result rows\n", nativeMS, timingRuns, res.N())

		// The profiled run is separate from the timing runs, so the
		// reported native timings never include profiling overhead.
		var prof *engine.Profile
		if profiling {
			pres, err := plan.RunProfiled(nil)
			if err != nil {
				log.Fatal(err)
			}
			if !reflect.DeepEqual(res.Rel, pres.Rel) {
				failVerify(q.name, "profiled", diffRels(res.Rel, pres.Rel))
			}
			prof = pres.Profile
			if *analyze && !*jsonOut {
				fmt.Printf("\n%s", prof.String())
			}
			if *traceOut != "" {
				traceEvents = append(traceEvents, prof.TraceEvents(qi+1, q.name)...)
			}
			prof.Residuals(residuals)
		}

		if *verify {
			mustRun := func(b *monetlite.QueryBuilder) *monetlite.QueryResult {
				r, err := b.Run()
				if err != nil {
					log.Fatal(err)
				}
				return r
			}
			// Within one grouping strategy, every worker count is
			// byte-identical.
			serial := mustRun(q.build().CostModel(&model).Parallel(1).GroupStrategy(aggForce))
			if !reflect.DeepEqual(res.Rel, serial.Rel) {
				failVerify(q.name, "serial", diffRels(res.Rel, serial.Rel))
			}
			// The radix grouping path cross-check (only where the plan
			// has a GroupAggregate — forcing a strategy elsewhere is a
			// no-op and would just re-run the identical plan): radix
			// must be byte-identical to its own serial run, and
			// equivalent to forced hash grouping — keys, counts, min
			// and max bitwise, sums up to association order (strategies
			// decompose the input differently, so multi-morsel float
			// sums agree only to rounding).
			if aggStrategyOf(plan.Explain()) == "" {
				say("verify: result byte-identical to the serial run (no GROUP BY)\n")
			} else {
				radix := mustRun(q.build().CostModel(&model).Parallel(workers).GroupStrategy("radix"))
				radixSerial := mustRun(q.build().CostModel(&model).Parallel(1).GroupStrategy("radix"))
				if !reflect.DeepEqual(radix.Rel, radixSerial.Rel) {
					failVerify(q.name, "radix-agg serial", diffRels(radix.Rel, radixSerial.Rel))
				}
				hash := mustRun(q.build().CostModel(&model).Parallel(workers).GroupStrategy("hash"))
				if err := equivalentRels(radix.Rel, hash.Rel); err != nil {
					failVerify(q.name, "hash-agg (vs radix-agg)", err.Error())
				}
				if err := equivalentRels(res.Rel, hash.Rel); err != nil {
					failVerify(q.name, "hash-agg", err.Error())
				}
				say("verify: byte-identical serial run; radix-agg deterministic and equivalent to hash-agg\n")
			}
		}

		var qr queryReport
		if sim != nil {
			before := sim.Stats()
			if _, err := plan.Run(sim); err != nil {
				log.Fatal(err)
			}
			st := sim.Stats().Sub(before)
			say("simulated on %s: %.1f ms (L1 %d, L2 %d, TLB %d misses) vs predicted %.1f ms\n",
				m.Name, st.ElapsedMillis(), st.L1Misses, st.L2Misses, st.TLBMisses,
				plan.PredictedMillis())
			simMS := st.ElapsedMillis()
			l1, l2, tlb := st.L1Misses, st.L2Misses, st.TLBMisses
			qr.SimMS, qr.SimL1, qr.SimL2, qr.SimTLB = &simMS, &l1, &l2, &tlb
		}

		if *jsonOut {
			bpo, apo := measureAllocs(func() {
				if _, err := plan.Run(nil); err != nil {
					log.Fatal(err)
				}
			})
			qr.Name = q.name
			qr.SQL = q.sql
			qr.NativeMS = nativeMS
			qr.NativeMSRuns = msRuns
			if *analyze {
				qr.Analyze = prof
			}
			qr.ResultRows = res.N()
			qr.PredictedMS = plan.PredictedMillis()
			qr.PredictionErrorFactor = errorFactor(qr.PredictedMS, nativeMS)
			qr.BytesPerOp = bpo
			qr.AllocsPerOp = apo
			qr.AggStrategy = aggStrategyOf(plan.Explain())
			if qr.AggStrategy == "radix" {
				// Record the forced-hash baseline alongside, so one
				// snapshot holds the radix-vs-hash-partials gap.
				hp, err := q.build().CostModel(&model).Parallel(workers).GroupStrategy("hash").Plan()
				if err != nil {
					log.Fatal(err)
				}
				if _, err := hp.Run(nil); err != nil { // warm, like the radix run
					log.Fatal(err)
				}
				hashMS := math.Inf(1)
				for i := 0; i < timingRuns; i++ { // min-of-3, like native_ms
					t0 := time.Now()
					if _, err := hp.Run(nil); err != nil {
						log.Fatal(err)
					}
					if ms := float64(time.Since(t0).Nanoseconds()) / 1e6; ms < hashMS {
						hashMS = ms
					}
				}
				hbpo, hapo := measureAllocs(func() {
					if _, err := hp.Run(nil); err != nil {
						log.Fatal(err)
					}
				})
				qr.HashAggMS, qr.HashAggBPO, qr.HashAggAPO = &hashMS, &hbpo, &hapo
			}
			rep.Queries = append(rep.Queries, qr)
		} else {
			fmt.Printf("\n%s\n", res.Format(*top))
		}
	}

	if *traceOut != "" {
		raw, err := engine.EncodeChromeTrace(traceEvents)
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*traceOut, raw, 0o644); err != nil {
			log.Fatal(err)
		}
		say("wrote Chrome trace (%d events) to %s\n", len(traceEvents), *traceOut)
	}
	if *calibOut != "" {
		raw, err := json.MarshalIndent(residuals, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*calibOut, append(raw, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		say("wrote cost-model residuals (%d operator kinds) to %s\n", len(residuals.Kinds()), *calibOut)
	}
	if *jsonOut {
		logSum := 0.0
		n := 0
		for _, qr := range rep.Queries {
			if qr.PredictionErrorFactor > 0 {
				logSum += math.Log(qr.PredictionErrorFactor)
				n++
			}
		}
		if n > 0 {
			rep.PredictionErrorGeomean = math.Exp(logSum / float64(n))
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			log.Fatal(err)
		}
	}
}

// errorFactor is how far off a prediction is, direction ignored:
// max(pred/actual, actual/pred), always ≥ 1; 0 when either side is
// degenerate.
func errorFactor(predMS, actualMS float64) float64 {
	if !(predMS > 0) || !(actualMS > 0) {
		return 0
	}
	if predMS > actualMS {
		return predMS / actualMS
	}
	return actualMS / predMS
}

// runCalibration is the -calibrate mode: measure the running machine,
// validate the result against the calibration invariants, persist it
// where -machine host will find it, and exit.
func runCalibration(path string, short bool) {
	if path == "" {
		path = "monetlite-host.json"
	}
	cfg := monetlite.DefaultCalibration()
	kind := "full"
	if short {
		cfg = monetlite.QuickCalibration()
		kind = "reduced (-calshort)"
	}
	fmt.Printf("calibrating this machine (%s sweeps; pointer-chase + stride + TLB probes)...\n", kind)
	t0 := time.Now()
	m, _, err := monetlite.Calibrate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := monetlite.CheckCalibration(m); err != nil {
		log.Fatal(err)
	}
	if err := monetlite.SaveMachine(m, path); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("done in %v:\n", time.Since(t0).Round(time.Millisecond))
	fmt.Printf("  clock    %.0f MHz\n", m.ClockMHz)
	fmt.Printf("  L1       %d KB, %d B lines (miss → L2: %.1f ns)\n", m.L1.Size>>10, m.L1.LineSize, m.Cost.LatL2)
	fmt.Printf("  L2       %d KB, %d B lines (miss → RAM: %.1f ns random, %.1f ns sequential)\n",
		m.L2.Size>>10, m.L2.LineSize, m.Cost.LatMem, m.Cost.LatMemSeq)
	fmt.Printf("  TLB      %d entries, %d B pages (miss: %.1f ns)\n", m.TLB.Entries, m.TLB.PageSize, m.Cost.LatTLB)
	fmt.Printf("  scan     %.2f ns/BUN, %.2f ns/byte\n", m.Cost.WScanBUN, m.Cost.WScanByte)
	fmt.Printf("wrote %s — `mlquery -machine host` now plans on this profile\n", path)
}

// failVerify reports one -verify cross-check failure on stderr as a
// single line and exits non-zero.
func failVerify(query, against, diff string) {
	fmt.Fprintf(os.Stderr, "mlquery: %s: result differs from %s run: %s\n", query, against, diff)
	os.Exit(1)
}

// diffRels summarizes the first divergence between two result
// relations in one line: the shape mismatch, the column-header
// mismatch, or the first differing cell plus how many rows of that
// column disagree in total.
func diffRels(a, b *engine.Rel) string {
	if a.N != b.N || len(a.Cols) != len(b.Cols) {
		return fmt.Sprintf("shape %d rows x %d cols vs %d rows x %d cols", a.N, len(a.Cols), b.N, len(b.Cols))
	}
	for c := range a.Cols {
		ac, bc := &a.Cols[c], &b.Cols[c]
		if ac.Name != bc.Name || ac.Kind != bc.Kind {
			return fmt.Sprintf("column %d header: %s %v vs %s %v", c, ac.Name, ac.Kind, bc.Name, bc.Kind)
		}
		first, rows := -1, 0
		for i := 0; i < a.N; i++ {
			if relCell(ac, i) != relCell(bc, i) {
				if first < 0 {
					first = i
				}
				rows++
			}
		}
		if first >= 0 {
			return fmt.Sprintf("column %q row %d: %s vs %s (%d of %d rows differ)",
				ac.Name, first, relCell(ac, first), relCell(bc, first), rows, a.N)
		}
	}
	return "no cell-level difference found"
}

// relCell renders one cell for the diff summary.
func relCell(c *engine.RelCol, i int) string {
	switch c.Kind {
	case engine.KInt:
		return fmt.Sprintf("%d", c.Ints[i])
	case engine.KFloat:
		return fmt.Sprintf("%v", c.Floats[i])
	default:
		return c.Strs[i]
	}
}

// equivalentRels compares two result relations across grouping
// strategies: everything bitwise except float "sum" columns, which may
// differ by a relative 1e-9 (different strategies associate the same
// per-group additions differently once the input spans morsels).
func equivalentRels(a, b *engine.Rel) error {
	if a.N != b.N || len(a.Cols) != len(b.Cols) {
		return fmt.Errorf("shape (%d rows, %d cols) vs (%d rows, %d cols)", a.N, len(a.Cols), b.N, len(b.Cols))
	}
	for c := range a.Cols {
		ac, bc := &a.Cols[c], &b.Cols[c]
		if ac.Name != bc.Name || ac.Kind != bc.Kind {
			return fmt.Errorf("column %d: (%s, %v) vs (%s, %v)", c, ac.Name, ac.Kind, bc.Name, bc.Kind)
		}
		if ac.Kind != engine.KFloat || ac.Name != "sum" {
			if !reflect.DeepEqual(*ac, *bc) {
				return fmt.Errorf("column %q differs", ac.Name)
			}
			continue
		}
		for i := range ac.Floats {
			tol := 1e-9 * (1 + math.Abs(ac.Floats[i]))
			if d := ac.Floats[i] - bc.Floats[i]; d > tol || -d > tol {
				return fmt.Errorf("sum[%d] = %v vs %v", i, ac.Floats[i], bc.Floats[i])
			}
		}
	}
	return nil
}

// aggStrategyOf extracts the grouping algorithm from an EXPLAIN
// rendering ("" when the plan has no GroupAggregate): the token inside
// "GroupAggregate[...]", up to the bits annotation.
func aggStrategyOf(explain string) string {
	_, rest, ok := strings.Cut(explain, "GroupAggregate[")
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, " ]"); i >= 0 {
		return rest[:i]
	}
	return rest
}

// measureAllocs reports the heap bytes and allocation count of one run
// of f, averaged over a few runs (TotalAlloc/Mallocs are monotonic, so
// concurrent GC cannot skew the deltas).
func measureAllocs(f func()) (bytesPerOp, allocsPerOp uint64) {
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs,
		(after.Mallocs - before.Mallocs) / runs
}

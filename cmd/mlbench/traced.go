package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"time"

	"monetlite"
	"monetlite/internal/dsm"
	"monetlite/internal/engine"
	"monetlite/internal/memsim"
)

// span is one traced interval: times are offsets from the tracer's epoch,
// parent is the index of the span that caused it (-1 for a root) and query
// ties the spans of one query together (0 outside queries).
type span struct {
	name       string
	start, end time.Duration
	parent     int
	query      int
}

// tracer keeps spans in memory; they are written out when the pass ends.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(name string, parent, query int) int {
	t.spans = append(t.spans, span{name: name, start: time.Since(t.epoch), parent: parent, query: query})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) time.Duration {
	t.spans[id].end = time.Since(t.epoch)
	return t.spans[id].end - t.spans[id].start
}

// writeChrome writes the spans as a Chrome trace (chrome://tracing,
// Perfetto): one row per nesting depth.
func (t *tracer) writeChrome(path string) error {
	type args struct {
		Parent int `json:"parent"`
		Query  int `json:"query,omitempty"`
	}
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		TS   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		PID  int     `json:"pid"`
		TID  int     `json:"tid"`
		Args args    `json:"args"`
	}
	events := make([]event, len(t.spans))
	depth := make([]int, len(t.spans))
	for i, s := range t.spans {
		if s.parent >= 0 {
			depth[i] = depth[s.parent] + 1
		}
		events[i] = event{Name: s.name, Ph: "X", TS: float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64((s.end - s.start).Nanoseconds()) / 1e3, PID: 1, TID: depth[i],
			Args: args{Parent: s.parent, Query: s.query}}
	}
	data, err := json.Marshal(struct {
		TraceEvents     []event `json:"traceEvents"`
		DisplayTimeUnit string  `json:"displayTimeUnit"`
	}{events, "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// opKinds are the operator kinds engine.op_self_ms is broken down by.
var opKinds = []string{"pipeline", "select_scan", "select_css", "refilter", "project", "join",
	"groupagg_hash", "groupagg_radix", "groupagg_sort", "orderby", "limit"}

// opKind maps a profile node's operator label to one of opKinds ("" for
// nodes, such as Scan, that are not priced separately).
func opKind(label string) string {
	switch {
	case strings.HasPrefix(label, "Pipeline["):
		return "pipeline"
	case label == "Select[scan]":
		return "select_scan"
	case label == "Select[csstree]":
		return "select_css"
	case label == "Select[refilter]":
		return "refilter"
	case label == "Project":
		return "project"
	case strings.HasPrefix(label, "Join["):
		return "join"
	case label == "GroupAggregate[hash]":
		return "groupagg_hash"
	case strings.HasPrefix(label, "GroupAggregate[radix"):
		return "groupagg_radix"
	case label == "GroupAggregate[sort]":
		return "groupagg_sort"
	case label == "OrderBy":
		return "orderby"
	case label == "Limit":
		return "limit"
	}
	return ""
}

// profileSums accumulates the public Result.Profile trees of profiled runs.
type profileSums struct {
	queries      int
	selfMS       map[string]float64
	trafficBytes float64
	replans      int
	morsels      int
	busyMS       float64 // sum of per-worker busy time of the parallel operators
	parallelMS   float64 // workers x self time of those operators
}

func (p *profileSums) add(prof *engine.Profile) {
	p.queries++
	if prof.Root == nil {
		return
	}
	var walk func(n *engine.OpStats, kind string)
	walk = func(n *engine.OpStats, kind string) {
		if !n.Phase {
			kind = opKind(n.Op)
		}
		if kind != "" {
			p.selfMS[kind] += n.SelfMS // phases count toward the operator they run in
		}
		p.trafficBytes += float64(n.BytesRead + n.BytesWritten)
		p.morsels += n.Morsels
		if n.Replanned != "" {
			p.replans++
		}
		if n.WorkerBusyMS != nil {
			for _, b := range n.WorkerBusyMS {
				p.busyMS += b
			}
			p.parallelMS += float64(len(n.WorkerBusyMS)) * n.SelfMS
		}
		for _, k := range n.Kids {
			walk(k, kind)
		}
	}
	walk(prof.Root, "")
}

var parameterRE = regexp.MustCompile(`[0-9]+(\.[0-9]+)?(e[+-]?[0-9]+)?|"[^"]*"`)

// normalizePlan strips every number and string literal from an Explain()
// text, so that what is left changes only when the plan's shape or a chosen
// algorithm changes, not with the seed's parameters or estimates.
func normalizePlan(explain string) string {
	return strings.TrimSpace(parameterRE.ReplaceAllString(explain, "#"))
}

// goldenPlans reads testdata/plans.golden: "== workload/template" headers
// followed by the normalized plan.
func goldenPlans(home string) (map[string]string, error) {
	data, err := os.ReadFile(filepath.Join(home, "testdata", "plans.golden"))
	if err != nil {
		return nil, err
	}
	plans := map[string]string{}
	for _, block := range strings.Split(string(data), "== ")[1:] {
		name, plan, _ := strings.Cut(block, "\n")
		plans[strings.TrimSpace(name)] = strings.TrimSpace(plan)
	}
	return plans, nil
}

// plans returns the normalized plan of each template's first parameter set.
func (e *env) plans() ([]string, error) {
	out := make([]string, len(e.specs))
	for ti := range e.specs {
		text, err := e.builder(e.specs[ti][0], workers).Explain()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.def.templates[ti].name, err)
		}
		out[ti] = normalizePlan(text)
	}
	return out, nil
}

const (
	simRowLimit     = 1 << 18 // the simulator runs only on tables up to this size
	minTracedRounds = 3       // of each mode, however few rounds the timed pass has
)

// The traced pass's query modes: as the timed pass, with spans around Plan
// and Run, through RunProfiled, and as the timed pass at Parallel(1).
const (
	modePlain = iota
	modeTraced
	modeProfiled
	modeSerial
	numModes
)

// tracedRounds is how many rounds the traced pass runs in each mode.
func (c config) tracedRounds() int { return max(minTracedRounds, c.rounds/tracedDivisor) }

// templateDetail is what the report keeps per template.
type templateDetail struct {
	Name    string  `json:"name"`
	SQL     string  `json:"sql"`
	Samples int     `json:"samples"`
	P50MS   float64 `json:"p50_ms"`
	P90MS   float64 `json:"p90_ms"`
	Plan    string  `json:"plan,omitempty"`
}

func (e *env) templateDetails(ms [][]float64, plans []string) []templateDetail {
	out := make([]templateDetail, len(ms))
	for ti, xs := range ms {
		tpl := e.def.templates[ti]
		out[ti] = templateDetail{Name: tpl.name, SQL: tpl.sql, Samples: len(xs), P50MS: median(xs), P90MS: percentile(xs, 0.9)}
		if plans != nil {
			out[ti].Plan = plans[ti]
		}
	}
	return out
}

// tracedPass produces every per-layer metric. It first measures the box
// (canaries), replays the layers and, on a small table, runs the simulator;
// then it issues cfg.rounds/tracedDivisor rounds of queries in each of four
// modes, rotating; the medians of the plain, traced and profiled modes give
// the two observer overheads, plain against serial the speed-up.
func (e *env) tracedPass(cfg config, times setupTimes) (m *metricSet, queries, failed int, details []templateDetail, err error) {
	m = &metricSet{}
	tr := newTracer()
	rounds := numModes * cfg.tracedRounds()
	root := tr.begin("traced_pass "+e.def.name, -1, 0)

	runtime.GC()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	heap := newHeapCounters()
	h0, cpu0 := heap.read(), cpuSeconds()

	hid := tr.begin("host", root, 0)
	host := measureHost(cfg)
	tr.end(hid)
	for _, n := range host.names {
		m.add(n, host.byName[n].Value, host.byName[n].Unit)
	}
	if err = e.replayLayers(tr, root, m, cfg); err != nil {
		return nil, 0, 0, nil, err
	}
	simMS, err := e.simulate(tr, root, m, cfg)
	if err != nil {
		return nil, 0, 0, nil, err
	}

	nt := len(e.specs)
	plain, traced, profiled, serial := make([][]float64, nt), make([][]float64, nt), make([][]float64, nt), make([][]float64, nt)
	planUS, execMS, predMS, profExecMS := make([][]float64, nt), make([][]float64, nt), make([][]float64, nt), make([][]float64, nt)
	sums := profileSums{selfMS: map[string]float64{}}
	var verifySec float64
	check := func(ti, set int, res *monetlite.QueryResult, err error) {
		t := time.Now()
		queries++
		if !e.verify(ti, set, res, err) {
			failed++
		}
		verifySec += since(t)
	}

	// Whole rounds (one query of every template) rotate through the four
	// modes, so every mode's queries follow the same predecessors as in
	// the timed pass and drift hits all modes alike.
	qspan := tr.begin("queries", root, 0)
	for round := 0; round < rounds; round++ {
		mode, set := round%numModes, round/numModes%paramSets
		for ti := range e.specs {
			q := e.specs[ti][set]
			var res *monetlite.QueryResult
			var err error
			switch mode {
			case modePlain, modeSerial:
				par, into := workers, plain
				if mode == modeSerial {
					par, into = 1, serial
				}
				t0 := time.Now()
				res, err = e.builder(q, par).Run()
				into[ti] = append(into[ti], millis(time.Since(t0)))
			case modeTraced:
				qid := queries + 1
				sq := tr.begin("query "+e.def.templates[ti].name, qspan, qid)
				sp := tr.begin("engine.plan", sq, qid)
				plan, perr := e.builder(q, workers).Plan()
				planDur := tr.end(sp)
				if err = perr; err == nil {
					se := tr.begin("engine.exec", sq, qid)
					res, err = plan.Run(nil)
					execMS[ti] = append(execMS[ti], millis(tr.end(se)))
					planUS[ti] = append(planUS[ti], float64(planDur.Nanoseconds())/1e3)
					predMS[ti] = append(predMS[ti], plan.PredictedMillis())
				}
				traced[ti] = append(traced[ti], millis(tr.end(sq)))
			case modeProfiled:
				t0 := time.Now()
				plan, perr := e.builder(q, workers).Plan()
				if err = perr; err == nil {
					t1 := time.Now()
					res, err = plan.RunProfiled(nil)
					profExecMS[ti] = append(profExecMS[ti], millis(time.Since(t1)))
				}
				profiled[ti] = append(profiled[ti], millis(time.Since(t0)))
				if err == nil && res.Profile != nil {
					sums.add(res.Profile)
				}
			}
			check(ti, set, res, err)
		}
	}
	tr.end(qspan)
	h1, cpu1 := heap.read(), cpuSeconds()
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	tr.end(root)

	// engine: planner, executor, operators.
	ratio := func(num, den [][]float64) float64 { // geomean over templates of p50 ratios
		vals := make([]float64, nt)
		for ti := range vals {
			if d := median(den[ti]); d > 0 {
				vals[ti] = median(num[ti]) / d
			}
		}
		return geomean(vals)
	}
	m.add("engine.plan_us_p50", geoOver(planUS, median), "us")
	shares := make([]float64, nt)
	for ti := range shares {
		p := median(planUS[ti]) / 1e3
		shares[ti] = p / (p + median(execMS[ti]))
	}
	m.add("engine.plan_share", geomean(shares), "ratio")
	m.add("engine.exec_ms_p50", geoOver(execMS, median), "ms")
	pq := float64(max(sums.queries, 1))
	var selfTotal float64
	for _, k := range opKinds {
		m.add("engine.op_self_ms."+k, sums.selfMS[k]/pq, "ms")
		selfTotal += sums.selfMS[k]
	}
	var profExecTotal float64
	for _, xs := range profExecMS {
		for _, x := range xs {
			profExecTotal += x
		}
	}
	m.add("engine.residual_ms", (profExecTotal-selfTotal)/pq, "ms")
	m.add("engine.traffic_mb_per_query", sums.trafficBytes/1e6/pq, "MB")
	m.add("engine.replans_per_query", float64(sums.replans)/pq, "count")
	m.add("engine.parallel_speedup_x", ratio(serial, plain), "x")
	m.add("engine.profile_overhead_share", ratio(profiled, plain)-1, "ratio")
	plans, err := e.plans()
	if err != nil {
		return nil, 0, 0, nil, err
	}
	golden, err := goldenPlans(cfg.home)
	if err != nil {
		return nil, 0, 0, nil, err
	}
	changed := 0
	for ti, p := range plans {
		if golden[e.def.name+"/"+e.def.templates[ti].name] != p {
			changed++
		}
	}
	m.add("engine.plans_changed", float64(changed), "count")
	if sums.parallelMS > 0 {
		m.add("core.worker_busy_share", sums.busyMS/sums.parallelMS, "ratio")
	} else {
		m.add("core.worker_busy_share", 0, "ratio")
	}
	m.add("core.morsels_per_query", float64(sums.morsels)/pq, "count")

	// costmodel: predicted against measured, plans frozen by machine.json.
	m.add("costmodel.pred_ms", geoOver(predMS, median), "ms")
	errs := make([]float64, nt)
	for ti := range errs {
		pred, actual := median(predMS[ti]), median(execMS[ti])
		if pred > 0 && actual > 0 {
			errs[ti] = math.Max(pred/actual, actual/pred)
		}
	}
	m.add("costmodel.pred_error_x", geomean(errs), "x")

	// memsim: the third corner of the paper's triangle, where it ran.
	if simMS != nil {
		native, pred := make([]float64, nt), make([]float64, nt)
		for ti := range simMS {
			native[ti] = simMS[ti] / median(execMS[ti])
			pred[ti] = simMS[ti] / median(predMS[ti])
		}
		m.add("memsim.sim_vs_native_x", geomean(native), "x")
		m.add("memsim.sim_vs_pred_x", geomean(pred), "x")
	} else {
		m.add("memsim.sim_vs_native_x", 0, "x")
		m.add("memsim.sim_vs_pred_x", 0, "x")
	}

	// workload and set-up shares of the layers.
	mrows := float64(e.item.N) / 1e6
	m.add("workload.gen_s_per_mrow", times.gen/mrows, "s")
	m.add("dsm.decompose_s_per_mrow", times.decompose/mrows, "s")

	// runtime: Go allocator and collector over the whole pass.
	qn := float64(max(queries, 1))
	m.add("runtime.gc_cycles_per_query", float64(h1.gcCycles-h0.gcCycles)/qn, "count")
	if cpu1 > cpu0 {
		m.add("runtime.gc_cpu_share", (h1.gcCPUSeconds-h0.gcCPUSeconds)/(cpu1-cpu0), "ratio")
	} else {
		m.add("runtime.gc_cpu_share", 0, "ratio")
	}
	m.add("runtime.gc_pause_ms_max", gcPauseMaxMS(&ms1, ms0.NumGC), "ms")
	m.add("runtime.heap_live_mb", float64(ms0.HeapAlloc)/1e6, "MB")

	// harness: numbers that qualify the run.
	samples := 0
	half1, half2 := make([][]float64, nt), make([][]float64, nt)
	for ti, xs := range plain {
		samples += len(xs)
		half1[ti], half2[ti] = xs[:len(xs)/2], xs[len(xs)/2:]
	}
	m.add("harness.samples", float64(samples), "count")
	m.add("harness.oracle_s", times.oracle, "s")
	m.add("harness.verify_ms", verifySec*1e3/qn, "ms")
	p50 := geoOver(plain, median)
	m.add("harness.drift_share", math.Abs(geoOver(half1, median)-geoOver(half2, median))/p50, "ratio")
	m.add("harness.trace_overhead_share", ratio(traced, plain)-1, "ratio")
	// Demoted from end-to-end: on this class of box its spread between
	// identical runs (10-17%) exceeds any bound worth having.
	m.add("e2e.query_ms_p90", geoOver(plain, func(xs []float64) float64 { return percentile(xs, 0.9) }), "ms")

	if err := tr.writeChrome(filepath.Join(cfg.outDir, "trace-"+e.def.name+".json")); err != nil {
		return nil, 0, 0, nil, err
	}
	return m, queries, failed, e.templateDetails(plain, plans), nil
}

// simulate runs each template's first parameter set on the memory-hierarchy
// simulator, twice, each time on freshly decomposed tables and a fresh Sim
// (a column keeps the simulated addresses of the first Sim it met), and
// requires the two runs to count exactly the same misses. It returns the
// simulated milliseconds per template, or nil where the table is too big
// for the simulator to finish inside a run.
func (e *env) simulate(tr *tracer, parent int, m *metricSet, cfg config) ([]float64, error) {
	if e.item.N > simRowLimit {
		for _, name := range []string{"l1_misses", "l2_misses", "tlb_misses"} {
			m.add("memsim."+name, 0, "count")
		}
		m.add("memsim.sim_ms", 0, "ms")
		m.add("memsim.sim_mrows_per_s", 0, "Mrows/s")
		return nil, nil
	}
	id := tr.begin("memsim", parent, 0)
	defer tr.end(id)
	rows := boxItems(e.items)
	var first memsim.Stats
	var simMS []float64
	var wall float64
	for pass := 0; pass < 2; pass++ {
		t := tables{machine: e.machine}
		var err error
		if t.item, err = dsm.Decompose(dsm.ItemSchema(), rows); err != nil {
			return nil, err
		}
		if t.partSmall, err = decomposeParts(e.partSmallRows); err != nil {
			return nil, err
		}
		if e.partLarge != nil {
			if t.partLarge, err = decomposeParts(e.partLargeRows); err != nil {
				return nil, err
			}
		}
		sim, err := memsim.New(e.machine)
		if err != nil {
			return nil, err
		}
		perTemplate := make([]float64, len(e.specs))
		for ti := range e.specs {
			plan, err := t.builder(e.specs[ti][0], 1).Plan()
			if err != nil {
				return nil, err
			}
			before := sim.Stats()
			sid := tr.begin("memsim.run "+e.def.templates[ti].name, id, 0)
			_, err = plan.Run(sim)
			wall += tr.end(sid).Seconds()
			if err != nil {
				return nil, err
			}
			perTemplate[ti] = sim.Stats().Sub(before).ElapsedMillis()
		}
		if pass == 0 {
			first, simMS = sim.Stats(), perTemplate
		} else if got := sim.Stats(); got != first {
			return nil, fmt.Errorf("memsim: two simulator runs disagree:\n  %v\n  %v", first, got)
		}
	}
	m.add("memsim.l1_misses", float64(first.L1Misses), "count")
	m.add("memsim.l2_misses", float64(first.L2Misses), "count")
	m.add("memsim.tlb_misses", float64(first.TLBMisses), "count")
	m.add("memsim.sim_ms", first.ElapsedMillis(), "ms")
	m.add("memsim.sim_mrows_per_s", float64(2*len(e.specs)*e.item.N)/1e6/wall, "Mrows/s")
	return simMS, nil
}

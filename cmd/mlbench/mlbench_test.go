package main

import (
	"encoding/json"
	"math"
	"math/bits"
	"os"
	"regexp"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestStatistics(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median odd = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if xs[0] != 5 {
		t.Error("median sorted its argument in place")
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i) // 100..1
	}
	if got := percentile(hundred, 0.9); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90 (ten samples beyond it)", got)
	}
	if got := percentile(hundred, 1); got != 100 {
		t.Errorf("p100 = %v, want 100", got)
	}
	if got := percentile([]float64{7}, 0.9); got != 7 {
		t.Errorf("p90 of one sample = %v, want 7", got)
	}
	if got := geomean([]float64{0.006, 6, 6000}); !near(got, 6) {
		t.Errorf("geomean = %v, want 6", got)
	}
	if got := geomean([]float64{0, 4, 9}); !near(got, 6) {
		t.Errorf("geomean skipping a zero = %v, want 6", got)
	}
	// A workload's metric: geomean over templates of each template's median.
	if got := geoOver([][]float64{{1, 2, 300}, {8, 8, 8}}, median); !near(got, 4) {
		t.Errorf("geoOver = %v, want 4", got)
	}
	// statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25].
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := iqrShare(ten); !near(got, (8.25-2.75)/5.5) {
		t.Errorf("iqrShare = %v, want 1", got)
	}
}

func TestVerdict(t *testing.T) {
	cases := []struct {
		a, b, bound  float64
		lower, noisy bool
		want         string
	}{
		{100, 109, 0.10, true, false, "unchanged"},
		{100, 111, 0.10, true, false, "regressed"},
		{100, 89, 0.10, true, false, "improved"},
		{100, 89, 0.10, false, false, "regressed"}, // throughput fell
		{100, 111, 0.10, false, false, "improved"},
		{100, 150, 0.10, true, true, "unresolved"}, // a noisy box resolves nothing
		{0, 1, 0.10, true, false, "unresolved"},
	}
	for _, c := range cases {
		if got := verdict(c.a, c.b, c.bound, c.lower, c.noisy); got != c.want {
			t.Errorf("verdict(%v -> %v, bound %v, lower %v, noisy %v) = %s, want %s", c.a, c.b, c.bound, c.lower, c.noisy, got, c.want)
		}
	}
}

// The timed pass is sized in rounds: -seconds scales every workload's count
// by one factor and never takes a template below minRounds samples.
func TestRoundsFor(t *testing.T) {
	d := &workloadDef{rounds: 150}
	for _, c := range []struct {
		seconds float64
		want    int
	}{{defaultSeconds, 150}, {2 * defaultSeconds, 300}, {defaultSeconds / 2, minRounds}, {1, minRounds}} {
		if got := d.roundsFor(c.seconds); got != c.want {
			t.Errorf("roundsFor(%v) = %d, want %d", c.seconds, got, c.want)
		}
	}
}

// -compare judges only reports of identical work, and reads the canaries of
// the timed passes' own processes.
func TestCompareQualifiers(t *testing.T) {
	mk := func(seed uint64, rows, rounds int, seqGBps float64) *report {
		d := detail{ItemRows: rows, Rounds: rounds}
		return &report{Seed: seed, Seconds: defaultSeconds, Workloads: map[string]*workloadReport{"w": {
			Timed: d, Traced: d,
			Host:     map[string]*metricRuns{"host.seq_read_gbps_1": {Median: seqGBps}},
			PerLayer: map[string]*metricRuns{"harness.drift_share": {Median: 0.01}},
		}}}
	}
	base := mk(1, 4096, 100, 10)
	if err := comparable(base, mk(1, 4096, 100, 12)); err != nil {
		t.Errorf("identical work refused: %v", err)
	}
	for name, other := range map[string]*report{"seed": mk(2, 4096, 100, 10), "rows": mk(1, 2048, 100, 10), "rounds": mk(1, 4096, 50, 10)} {
		if comparable(base, other) == nil {
			t.Errorf("reports that differ in %s were accepted", name)
		}
	}
	w := func(r *report) *workloadReport { return r.Workloads["w"] }
	if why := noisyReason(w(base), w(mk(1, 4096, 100, 10*(1+canaryTolerance/2)))); why != "" {
		t.Errorf("a canary inside its tolerance made the run noisy: %s", why)
	}
	if noisyReason(w(base), w(mk(1, 4096, 100, 10*(1+2*canaryTolerance)))) == "" {
		t.Error("a canary that moved twice its tolerance went unnoticed")
	}
	drifted := mk(1, 4096, 100, 10)
	w(drifted).PerLayer["harness.drift_share"].Median = 2 * driftLimit
	if noisyReason(w(base), w(drifted)) == "" {
		t.Error("a drifting run went unnoticed")
	}
}

func TestNormalizePlan(t *testing.T) {
	a := normalizePlan("Join[phash L1 (B=10, P=2)] card~2097152 [pred 401.13 ms: 6.82e+06 L1]\n  Select[scan] shipmode = \"MAIL\"\n")
	b := normalizePlan("Join[phash L1 (B=9, P=1)] card~7 [pred 1.5 ms: 1e+02 L1]\n  Select[scan] shipmode = \"AIR\"")
	if a != b {
		t.Errorf("same shape, different numbers and literals:\n%s\n%s", a, b)
	}
	if c := normalizePlan("Join[simple hash] card~7"); c == a {
		t.Error("a changed algorithm must change the normalized plan")
	}
}

// smallConfig shrinks a workload to 4096 item rows.
func smallConfig(t *testing.T, def *workloadDef) config {
	return config{home: ".", outDir: t.TempDir(), seed: 7, rounds: 2 * tracedDivisor,
		shrink: uint(bits.Len(uint(def.itemRows)) - 1 - 12)}
}

// Every template of every workload: the engine's first result of each
// parameter set equals the oracle's.
func TestOracleMatchesEngine(t *testing.T) {
	for i := range workloadDefs {
		def := &workloadDefs[i]
		e, _, failed, err := setUp(def, smallConfig(t, def), 1)
		if err != nil {
			t.Fatalf("%s: %v", def.name, err)
		}
		if e.item.N != 4096 {
			t.Errorf("%s: %d item rows, want 4096", def.name, e.item.N)
		}
		if failed != 0 {
			t.Errorf("%s: %d parameter sets disagree with the oracle", def.name, failed)
		}
	}
}

// The comparison must see what it is there to see.
func TestDiffDetectsWrongResults(t *testing.T) {
	def := &workloadDefs[0]
	e, _, _, err := setUp(def, smallConfig(t, def), 1)
	if err != nil {
		t.Fatal(err)
	}
	q := e.specs[0][0] // S1: group by shipmode
	want, err := e.oracle(q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.builder(q, workers).Run()
	if err != nil {
		t.Fatal(err)
	}
	got, err := fromResult(res)
	if err != nil {
		t.Fatal(err)
	}
	if d := diff(want, got, q); d != "" {
		t.Fatalf("unmodified result differs: %s", d)
	}
	want.cols[1].ints[2]++ // one count off
	if d := diff(want, got, q); d == "" {
		t.Error("a wrong count went unnoticed")
	}
	want.cols[1].ints[2]--
	want.cols[2].floats[0] *= 1 + 1e-6 // a sum off by more than rounding
	if d := diff(want, got, q); d == "" {
		t.Error("a wrong sum went unnoticed")
	}
	want.cols[2].floats[0] = got.cols[2].floats[0] * (1 + 1e-13) // association-order noise
	if d := diff(want, got, q); d != "" {
		t.Errorf("rounding noise on a sum reported: %s", d)
	}
	h1, _ := hashResult(res)
	got.cols[2].floats[0] = math.Nextafter(got.cols[2].floats[0], 0)
	if h2, _ := hashResult(res); h1 == h2 {
		t.Error("the result hash ignores a one-bit change")
	}
}

// A smoke run of point_small emits exactly the metrics BENCHMARK.json names,
// with its units, and every name is well-formed.
func TestSmokeRunEmitsBenchmarkMetrics(t *testing.T) {
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadDefs) {
		t.Errorf("BENCHMARK.json names %d workloads, the harness has %d", len(spec.Workloads), len(workloadDefs))
	}
	for i, w := range spec.Workloads {
		if i < len(workloadDefs) && w.Name != workloadDefs[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the harness %q", i, w.Name, workloadDefs[i].name)
		}
	}

	def, err := findWorkload("point_small")
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig(t, def)
	e, times, failed, err := setUp(def, cfg, 2)
	if err != nil || failed != 0 {
		t.Fatalf("set-up: %v, %d failed", err, failed)
	}
	st := e.timedPass(cfg.rounds)
	if st.failed != 0 || st.queries != cfg.rounds*len(def.templates) {
		t.Fatalf("timed pass: %d queries, %d failed", st.queries, st.failed)
	}
	traced, _, failed, _, err := e.tracedPass(cfg, times)
	if err != nil || failed != 0 {
		t.Fatalf("traced pass: %v, %d failed", err, failed)
	}
	if _, err := os.Stat(cfg.outDir + "/trace-point_small.json"); err != nil {
		t.Errorf("no Chrome trace written: %v", err)
	}

	wellFormed := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	check := func(section string, want []struct{ Name, Unit string }, got *metricSet) {
		for _, w := range want {
			m, ok := got.byName[w.Name]
			switch {
			case !ok:
				t.Errorf("%s: %s is in BENCHMARK.json but was not emitted", section, w.Name)
			case m.Unit != w.Unit:
				t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", section, w.Name, m.Unit, w.Unit)
			case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
				t.Errorf("%s: %s = %v", section, w.Name, m.Value)
			}
			if !wellFormed.MatchString(w.Name) {
				t.Errorf("%s: malformed metric name %q", section, w.Name)
			}
		}
		if len(got.names) != len(want) {
			t.Errorf("%s: %d metrics emitted, BENCHMARK.json names %d", section, len(got.names), len(want))
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd(st, times.total()))
	check("per_layer", spec.PerLayer, traced)
	if v := traced.byName["memsim.l1_misses"].Value; v <= 0 {
		t.Errorf("the simulator did not run on the small table: l1_misses = %v", v)
	}
}

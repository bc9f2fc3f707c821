package main

import (
	"fmt"
	"os"
	"time"

	"monetlite"
)

// metric is one reported number; metricSet keeps them in the order added.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet struct {
	names  []string
	byName map[string]metric
}

func (s *metricSet) add(name string, v float64, unit string) {
	if s.byName == nil {
		s.byName = map[string]metric{}
	}
	s.names = append(s.names, name)
	s.byName[name] = metric{v, unit}
}

// passStats is what a closed loop of queries measured. Latencies are per
// template, in ms, in issue order.
type passStats struct {
	ms         [][]float64
	queries    int
	failed     int
	querySec   float64 // sum of the timed intervals
	cpuSec     float64 // process CPU inside the timed intervals
	allocBytes uint64  // heap bytes allocated inside the timed intervals
	allocObjs  uint64
	verifySec  float64
	rssPeaksMB []float64 // per round; one value for the whole process where rssReset is false
	rssReset   bool      // the kernel lets the harness restart the resident-set high-water mark
}

// timedPass is the end-to-end measurement: one client, closed loop, a fixed
// number of whole rounds (one query of every template, parameter sets
// cycled), so that two commits run identical queries. No span, trace or
// profile code is on this path. Each query's CPU and allocation counters are
// read just outside its timed interval and its result is verified after it,
// so the harness's own work is in none of the reported numbers. The
// resident-set high-water mark is restarted before every round: set-up's
// boxed rows, several times the decomposed tables, are in none of the peaks,
// and one round in which the collector ran late does not decide the metric.
func (e *env) timedPass(rounds int) passStats {
	st := passStats{ms: make([][]float64, len(e.specs)), rssReset: resetRSSPeak()}
	heap := newHeapCounters()
	for round := 0; round < rounds; round++ {
		set := round % paramSets
		for ti := range e.specs {
			q := e.specs[ti][set]
			b := e.builder(q, workers)
			h0, c0 := heap.read(), cpuSeconds()
			t0 := time.Now()
			res, err := b.Run() // Plan() + Run(nil)
			d := time.Since(t0)
			c1, h1 := cpuSeconds(), heap.read()

			st.queries++
			st.querySec += d.Seconds()
			st.cpuSec += c1 - c0
			st.allocBytes += h1.bytes - h0.bytes
			st.allocObjs += h1.objects - h0.objects
			st.ms[ti] = append(st.ms[ti], millis(d))

			v0 := time.Now()
			if !e.verify(ti, set, res, err) {
				st.failed++
			}
			st.verifySec += since(v0)
		}
		if st.rssReset {
			st.rssPeaksMB = append(st.rssPeaksMB, rssPeakMB())
			resetRSSPeak()
		}
	}
	if !st.rssReset {
		st.rssPeaksMB = []float64{rssPeakMB()}
	}
	return st
}

// verify checks a repeated run against the hash of the parameter set's
// first, oracle-checked result.
func (e *env) verify(ti, set int, res *monetlite.QueryResult, err error) bool {
	name, q := e.def.templates[ti].name, e.specs[ti][set]
	if err != nil {
		fmt.Fprintf(os.Stderr, "FAIL %s/%s [%s]: %v\n", e.def.name, name, q, err)
		return false
	}
	h, err := hashResult(res)
	if err != nil || h != e.hashes[ti][set] {
		fmt.Fprintf(os.Stderr, "FAIL %s/%s [%s]: result hash %x differs from first run %x (%v)\n",
			e.def.name, name, q, h, e.hashes[ti][set], err)
		return false
	}
	return true
}

// endToEnd turns a timed pass into the end-to-end metrics of BENCHMARK.json.
func endToEnd(st passStats, setupS float64) *metricSet {
	q := float64(st.queries)
	m := &metricSet{}
	m.add("query_ms_p50", geoOver(st.ms, median), "ms")
	m.add("queries_per_s", q/st.querySec, "1/s")
	m.add("cpu_ms_per_query", st.cpuSec*1e3/q, "ms")
	m.add("alloc_mb_per_query", float64(st.allocBytes)/1e6/q, "MB")
	m.add("allocs_per_query", float64(st.allocObjs)/q, "count")
	m.add("rss_peak_mb", median(st.rssPeaksMB), "MB")
	m.add("setup_s", setupS, "s")
	return m
}

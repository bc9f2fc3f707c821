package main

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"

	"monetlite/internal/dsm"
	"monetlite/internal/memsim"
	"monetlite/internal/workload"
)

// config is what one pass of one workload needs.
type config struct {
	home    string  // cmd/mlbench: testdata/ is read from it
	outDir  string  // where traces and the report are written
	seed    uint64  // drives table data and every parameter pool
	seconds float64 // scales the round counts of the sizing table
	rounds  int     // whole rounds of the timed pass (workloadDef.roundsFor(seconds))
	shrink  uint    // right-shift applied to every size; only the tests set it
}

// tableBuilds is how often set-up generates and decomposes the tables;
// setup_s takes the median, so one page-fault storm does not decide it. The
// warm-up that follows runs once, on the last build.
const tableBuilds = 3

// env is one workload, set up: raw rows for the oracle, decomposed tables for
// the engine, and per template the drawn parameter sets with the result hash
// of each one's first, oracle-checked run.
type env struct {
	def *workloadDef
	tables

	items         []workload.Item
	partSmallRows []workload.Part
	partLargeRows []workload.Part

	specs  [][paramSets]querySpec // [template][set]
	hashes [][paramSets]uint64
}

// tables are the decomposed tables a query is built over, with the frozen
// machine profile every plan is costed on.
type tables struct {
	machine   memsim.Machine
	item      *dsm.Table
	partSmall *dsm.Table
	partLarge *dsm.Table // nil unless the workload joins with it
}

// setupTimes are the seconds each set-up phase took: gen, box and decompose
// are medians over the table builds. Oracle time is kept apart: it is the
// harness's cost, not the system's.
type setupTimes struct {
	gen, box, decompose, warm, oracle float64
}

// total is what setup_s reports: generation, decomposition, lazy index
// builds and warm-up, without the oracle.
func (s setupTimes) total() float64 { return s.gen + s.box + s.decompose + s.warm }

func since(t time.Time) float64 { return time.Since(t).Seconds() }

func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func loadMachine(home string) (memsim.Machine, error) {
	return memsim.LoadMachineFile(filepath.Join(home, "testdata", "machine.json"))
}

// buildTables generates the workload's rows and decomposes them, replacing
// whatever an earlier build left in e.
func (e *env) buildTables(cfg config) (times setupTimes, err error) {
	e.items, e.partSmallRows, e.partLargeRows = nil, nil, nil
	e.item, e.partSmall, e.partLarge = nil, nil, nil
	debug.FreeOSMemory() // the previous build must not add to this one's resident set
	itemRows := max(e.def.itemRows>>cfg.shrink, 64)

	t := time.Now()
	e.items = workload.Items(itemRows, cfg.seed)
	e.partSmallRows = workload.Parts(partSmallRows, cfg.seed+1)
	if e.def.partLarge {
		e.partLargeRows = workload.Parts(itemRows/2, cfg.seed+2)
	}
	times.gen = since(t)

	t = time.Now()
	rows := boxItems(e.items)
	times.box = since(t)
	t = time.Now()
	if e.item, err = dsm.Decompose(dsm.ItemSchema(), rows); err != nil {
		return times, err
	}
	times.decompose = since(t)
	rows = nil

	t = time.Now()
	if e.partSmall, err = decomposeParts(e.partSmallRows); err != nil {
		return times, err
	}
	if e.def.partLarge {
		if e.partLarge, err = decomposeParts(e.partLargeRows); err != nil {
			return times, err
		}
	}
	times.box += since(t)
	return times, nil
}

// setUp builds the workload's tables builds times and then runs every
// parameter set once, so lazy CSS-tree builds and arena growth are over
// before anything is timed. Each distinct first result is checked against
// the oracle; a mismatch is printed and counted in failed.
func setUp(def *workloadDef, cfg config, builds int) (e *env, times setupTimes, failed int, err error) {
	e = &env{def: def}
	if e.machine, err = loadMachine(cfg.home); err != nil {
		return nil, times, 0, err
	}
	var gen, box, decompose []float64
	for b := 0; b < builds; b++ {
		bt, err := e.buildTables(cfg)
		if err != nil {
			return nil, times, 0, err
		}
		gen, box, decompose = append(gen, bt.gen), append(box, bt.box), append(decompose, bt.decompose)
	}
	times = setupTimes{gen: median(gen), box: median(box), decompose: median(decompose)}

	e.specs = make([][paramSets]querySpec, len(def.templates))
	e.hashes = make([][paramSets]uint64, len(def.templates))
	for ti, tpl := range def.templates {
		h := fnv.New64a()
		h.Write([]byte(tpl.name))
		rng := workload.NewRNG(cfg.seed ^ h.Sum64())
		for s := range e.specs[ti] {
			e.specs[ti][s] = tpl.draw(rng, e.item.N)
		}
	}

	// First run of every parameter set: warm-up, result hash, oracle check.
	checked := map[string]bool{} // specs already compared (S3, J1, ... draw no parameters)
	for ti, tpl := range def.templates {
		for s, q := range e.specs[ti] {
			t := time.Now()
			res, err := e.builder(q, workers).Run()
			times.warm += since(t)
			if err != nil {
				fmt.Fprintf(os.Stderr, "FAIL %s/%s [%s]: %v\n", def.name, tpl.name, q, err)
				failed++
				continue
			}
			if e.hashes[ti][s], err = hashResult(res); err != nil {
				return nil, times, failed, err
			}
			if checked[q.String()] {
				continue
			}
			checked[q.String()] = true
			t = time.Now()
			want, err := e.oracle(q)
			if err != nil {
				return nil, times, failed, err
			}
			got, err := fromResult(res)
			if err != nil {
				return nil, times, failed, err
			}
			if d := diff(want, got, q); d != "" {
				fmt.Fprintf(os.Stderr, "FAIL %s/%s [%s]: %s\n", def.name, tpl.name, q, d)
				failed++
			}
			times.oracle += since(t)
		}
	}
	return e, times, failed, nil
}

// dropRows releases the raw rows once the result hashes are taken: the timed
// pass verifies by hash alone, and rows it does not need must not sit in the
// resident set it reports.
func (e *env) dropRows() {
	e.items, e.partSmallRows, e.partLargeRows = nil, nil, nil
}

// boxItems turns rows into the [][]any form dsm.Decompose takes.
func boxItems(items []workload.Item) [][]any {
	rows := make([][]any, len(items))
	for i := range items {
		it := &items[i]
		rows[i] = []any{
			int64(it.Order), int64(it.Part), int64(it.Supp), int64(it.Cust),
			int64(it.Qty), it.Price, it.Discnt, it.Tax, it.Status,
			it.Date1, it.Date2, it.ShipMode, it.Comment,
		}
	}
	return rows
}

func decomposeParts(parts []workload.Part) (*dsm.Table, error) {
	rows := make([][]any, len(parts))
	for i, p := range parts {
		rows[i] = []any{int64(p.Id), p.Category, p.Retail}
	}
	return dsm.Decompose(dsm.PartSchema(), rows)
}

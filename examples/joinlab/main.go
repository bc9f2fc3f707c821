// Joinlab: a shoot-out of every join algorithm in the paper at one
// cardinality — simulated time, miss counts, the cost-model
// prediction, and native wall clock on both the serial and the
// parallel engine side by side (the Figure 13 story in miniature).
//
// Run with:
//
//	go run ./examples/joinlab [-c 1000000] [-machine origin2k] [-par 0]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"text/tabwriter"
	"time"

	"monetlite"
)

func main() {
	card := flag.Int("c", 1_000_000, "tuples per join operand")
	machineName := flag.String("machine", "origin2k", "machine profile")
	par := flag.Int("par", 0, "parallel-engine workers (0 = GOMAXPROCS)")
	flag.Parse()

	machine, err := monetlite.MachineByName(*machineName)
	if err != nil {
		log.Fatal(err)
	}
	workers := *par
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	fmt.Printf("equi-join of two %d-tuple relations (hit rate 1) on %s, %d workers\n\n",
		*card, machine.Name, workers)

	l, r := monetlite.JoinInputs(*card, 7)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "strategy\tplan\tsim ms\tmodel ms\tL1\tL2\tTLB\tnative\tparallel")
	for _, s := range monetlite.Strategies() {
		plan := monetlite.NewPlan(s, *card, machine)

		// Native wall clock, serial engine.
		l.Unbind()
		r.Unbind()
		t0 := time.Now()
		res, err := monetlite.Execute(nil, l, r, plan, nil, monetlite.Serial())
		if err != nil {
			log.Fatal(err)
		}
		native := time.Since(t0)
		if res.Len() != *card {
			log.Fatalf("%v: wrong result size %d", s, res.Len())
		}

		// Native wall clock, parallel engine (byte-identical result).
		t0 = time.Now()
		pres, err := monetlite.Execute(nil, l, r, plan, nil, monetlite.Options{Parallelism: *par})
		if err != nil {
			log.Fatal(err)
		}
		parallel := time.Since(t0)
		if pres.Len() != res.Len() {
			log.Fatalf("%v: parallel result size %d != serial %d", s, pres.Len(), res.Len())
		}

		// Simulated counters.
		sim, err := monetlite.NewSim(machine)
		if err != nil {
			log.Fatal(err)
		}
		l.Unbind()
		r.Unbind()
		if _, err := monetlite.Execute(sim, l, r, plan, nil, monetlite.Options{}); err != nil {
			log.Fatal(err)
		}
		st := sim.Stats()

		// Model prediction for the same plan.
		predicted := monetlite.PredictPlan(plan, *card, machine)

		fmt.Fprintf(w, "%s\t%s\t%.1f\t%.1f\t%.2e\t%.2e\t%.2e\t%v\t%v\n",
			s, plan, st.ElapsedMillis(), predicted.Millis(machine),
			float64(st.L1Misses), float64(st.L2Misses), float64(st.TLBMisses),
			native.Round(time.Millisecond), parallel.Round(time.Millisecond))
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nauto plan: %s\n", monetlite.PlanAuto(*card, machine))
}

// Quickstart: join two BATs with the strategy planner, natively and
// under the memory-hierarchy simulator.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"monetlite"
)

func main() {
	const cardinality = 1 << 20 // one million 8-byte [OID,value] BUNs

	// Two relations with the same unique value set in different orders:
	// an equi-join with hit rate one, the paper's §3.4.1 setup.
	left, right := monetlite.JoinInputs(cardinality, 42)

	// Ask the planner (the paper's cost models) for the best strategy
	// on the Origin2000, the paper's experimental platform.
	machine := monetlite.Origin2000()
	plan := monetlite.PlanAuto(cardinality, machine)
	fmt.Printf("planner picked: %s for %d tuples on %s\n", plan, cardinality, machine.Name)

	// Native run: real wall-clock time on this host, on all cores
	// (the zero Options).
	t0 := time.Now()
	result, err := monetlite.Execute(nil, left, right, plan, nil, monetlite.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("native:    %d result pairs in %v\n", result.Len(), time.Since(t0))

	// Instrumented run: exact simulated cache/TLB behaviour.
	sim, err := monetlite.NewSim(machine)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := monetlite.Execute(sim, left, right, plan, nil, monetlite.Options{}); err != nil {
		log.Fatal(err)
	}
	st := sim.Stats()
	fmt.Printf("simulated: %.1f ms on %s (L1 misses %d, L2 misses %d, TLB misses %d)\n",
		st.ElapsedMillis(), machine.Name, st.L1Misses, st.L2Misses, st.TLBMisses)

	// Compare against the naive baseline the paper starts from.
	simBase, err := monetlite.NewSim(machine)
	if err != nil {
		log.Fatal(err)
	}
	left.Unbind()
	right.Unbind()
	if _, err := monetlite.SimpleHashJoin(simBase, left, right, nil); err != nil {
		log.Fatal(err)
	}
	base := simBase.Stats()
	fmt.Printf("baseline:  simple hash join takes %.1f ms — the radix plan is %.1fx faster\n",
		base.ElapsedMillis(), base.ElapsedNanos()/st.ElapsedNanos())

	// A peek at the join index ([left OID, right OID] pairs).
	fmt.Printf("join index head: ")
	for i := 0; i < 4; i++ {
		fmt.Printf("[%d,%d] ", result.BUNs[i].Head, result.BUNs[i].Tail)
	}
	fmt.Println("...")
}

package monetlite

import (
	"strings"
	"testing"
)

// The facade-level engine tests: the fluent Query builder as a
// downstream user drives it.

func TestQueryBuilderPipeline(t *testing.T) {
	items, err := ItemTable(1<<14, 42)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := PartTable(2000, 7)
	if err != nil {
		t.Fatal(err)
	}
	q := Query(items).
		WhereRange("date1", 8500, 9499).
		JoinTable(parts, "part", "id").
		GroupBy("category", Mul(Col("price"), Sub(Const(1), Col("discnt")))).
		OrderBy("sum", true)

	ex, err := q.Explain()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Join[", "GroupAggregate[", "Select[", "predicted"} {
		if !strings.Contains(ex, want) {
			t.Errorf("Explain missing %q:\n%s", want, ex)
		}
	}

	res, err := q.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.N() == 0 || res.N() > len(Categories()) {
		t.Fatalf("got %d groups, want 1..%d", res.N(), len(Categories()))
	}
	sums, err := res.Floats("sum")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(sums); i++ {
		if sums[i] > sums[i-1] {
			t.Errorf("sums not descending: %v", sums)
		}
	}
	counts, err := res.Ints("count")
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, c := range counts {
		total += c
	}
	// Every selected item joins exactly one part, so the grouped counts
	// must sum to the selection size.
	selected := 0
	for _, it := range Items(1<<14, 42) {
		if it.Date1 >= 8500 && it.Date1 <= 9499 {
			selected++
		}
	}
	if total != int64(selected) {
		t.Errorf("grouped counts sum to %d, selection has %d rows", total, selected)
	}
}

func TestQuerySimMatchesNative(t *testing.T) {
	items, err := ItemTable(1<<12, 1)
	if err != nil {
		t.Fatal(err)
	}
	build := func() *QueryBuilder {
		return Query(items).
			WhereString("shipmode", "MAIL").
			GroupBy("status", Col("price"))
	}
	native, err := build().Run()
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSim(Origin2000())
	if err != nil {
		t.Fatal(err)
	}
	instr, err := build().RunSim(sim)
	if err != nil {
		t.Fatal(err)
	}
	if native.N() != instr.N() {
		t.Fatalf("native %d rows, instrumented %d", native.N(), instr.N())
	}
	if sim.Stats().ElapsedNanos() <= 0 {
		t.Error("instrumented run recorded no simulated time")
	}
}

func TestQueryFormatAndRows(t *testing.T) {
	items, err := ItemTable(256, 9)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Query(items).
		Select("order", "qty", "shipmode").
		Limit(3).
		Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.N() != 3 {
		t.Fatalf("got %d rows, want 3", res.N())
	}
	out := res.Format(-1)
	if !strings.Contains(out, "shipmode") {
		t.Errorf("Format missing header:\n%s", out)
	}
	row := res.Row(0)
	if len(row) != 3 {
		t.Fatalf("Row has %d values, want 3", len(row))
	}
}

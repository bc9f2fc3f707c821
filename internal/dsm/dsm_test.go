package dsm

import (
	"reflect"
	"testing"
	"testing/quick"

	"monetlite/internal/memsim"
	"monetlite/internal/workload"
)

func itemTable(t *testing.T, n int) *Table {
	t.Helper()
	tab, err := ItemTable(n, 42)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestDecomposeShape(t *testing.T) {
	tab := itemTable(t, 1000)
	if tab.N != 1000 {
		t.Fatalf("N = %d", tab.N)
	}
	if len(tab.Columns()) != len(ItemSchema().Cols) {
		t.Fatalf("%d columns", len(tab.Columns()))
	}
	// shipmode: 7 distinct values → 1-byte codes (Figure 4's headline).
	sm, err := tab.Column("shipmode")
	if err != nil {
		t.Fatal(err)
	}
	if sm.Width() != 1 || sm.Enc == nil {
		t.Errorf("shipmode width = %d, enc = %v; want 1-byte encoded", sm.Width(), sm.Enc != nil)
	}
	// qty ≤ 50 fits one byte after integer shrinking.
	qty, _ := tab.Column("qty")
	if qty.Width() != 1 {
		t.Errorf("qty width = %d, want 1", qty.Width())
	}
	// order numbers exceed 16 bits at this cardinality? 1000+999 <
	// 32768, so 2 bytes.
	ord, _ := tab.Column("order")
	if ord.Width() != 2 {
		t.Errorf("order width = %d, want 2", ord.Width())
	}
	// The decomposed tuple is far narrower than the N-ary record.
	if tab.BUNWidth() >= tab.Schema.RowWidth()/2 {
		t.Errorf("BUN width %d not ≪ row width %d", tab.BUNWidth(), tab.Schema.RowWidth())
	}
}

func TestDecomposeTypeErrors(t *testing.T) {
	schema := Schema{Name: "t", Cols: []ColumnDef{{Name: "a", Type: LInt}}}
	if _, err := Decompose(schema, [][]any{{"oops"}}); err == nil {
		t.Error("wrong field type accepted")
	}
	bad := Schema{Name: "t", Cols: []ColumnDef{{Name: "a", Type: LogicalType(99)}}}
	if _, err := Decompose(bad, [][]any{{int64(1)}}); err == nil {
		t.Error("unknown type accepted")
	}
}

func TestSchemaLookups(t *testing.T) {
	s := ItemSchema()
	if _, err := s.Col("shipmode"); err != nil {
		t.Error(err)
	}
	if _, err := s.Col("nope"); err == nil {
		t.Error("missing column found")
	}
	tab := itemTable(t, 10)
	if _, err := tab.Column("nope"); err == nil {
		t.Error("missing column found on table")
	}
	for typ, want := range map[LogicalType]string{LInt: "int", LFloat: "float", LString: "string", LDate: "date"} {
		if typ.String() != want {
			t.Errorf("%d.String() = %q", typ, typ.String())
		}
	}
}

func TestSelectStringRemapsToCode(t *testing.T) {
	tab := itemTable(t, 2000)
	ship, err := tab.Column("shipmode")
	if err != nil {
		t.Fatal(err)
	}
	// The string predicate becomes a 1-byte code comparison (§3.1).
	code, ok := ship.Enc.Code("MAIL")
	if !ok {
		t.Fatal("MAIL outside dictionary")
	}
	pos := SelectCodePos(ship, code, 0, tab.N, nil)
	// Oracle: regenerate rows.
	items := workload.Items(2000, 42)
	want := 0
	for _, it := range items {
		if it.ShipMode == "MAIL" {
			want++
		}
	}
	if len(pos) != want {
		t.Errorf("MAIL selection: %d rows, want %d", len(pos), want)
	}
	// Every result row really is MAIL.
	vals, err := AppendStringsPos(nil, ship, pos)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vals {
		if v != "MAIL" {
			t.Fatalf("gathered %q", v)
		}
	}
	// Out-of-domain value: no code to compare against.
	if _, ok := ship.Enc.Code("TELEPORT"); ok {
		t.Error("out-of-domain value has a code")
	}
}

func TestSelectRange(t *testing.T) {
	tab := itemTable(t, 2000)
	date, err := tab.Column("date1")
	if err != nil {
		t.Fatal(err)
	}
	pos := SelectRangePos(date, 9000, 9499, 0, tab.N, nil)
	items := workload.Items(2000, 42)
	var want []int32
	for i, it := range items {
		if it.Date1 >= 9000 && it.Date1 <= 9499 {
			want = append(want, int32(i))
		}
	}
	if !reflect.DeepEqual(pos, want) {
		t.Errorf("date range: %d rows, want %d", len(pos), len(want))
	}
}

func TestGatherers(t *testing.T) {
	tab := itemTable(t, 500)
	items := workload.Items(500, 42)
	pos := []int32{0, 10, 499}
	price, _ := tab.Column("price")
	qty, _ := tab.Column("qty")
	ship, _ := tab.Column("shipmode")
	fs := AppendFloatsPos(nil, price, pos)
	is := AppendIntsPos(nil, qty, pos)
	ss, err := AppendStringsPos(nil, ship, pos)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pos {
		it := items[p]
		if fs[i] != it.Price || is[i] != int64(it.Qty) || ss[i] != it.ShipMode {
			t.Errorf("row %d: got (%v,%v,%v), want (%v,%v,%v)", p, fs[i], is[i], ss[i], it.Price, it.Qty, it.ShipMode)
		}
	}
	// Type mismatch.
	if _, err := AppendStringsPos(nil, price, pos); err == nil {
		t.Error("AppendStringsPos on float column accepted")
	}
}

func TestScanColumnStatsOrdering(t *testing.T) {
	// §3.1: scanning one column costs NSM > BUN(8B) > encoded byte.
	tab := itemTable(t, 100000)
	m := memsim.Origin2000()
	nsm, bun, dsmS, err := tab.ScanColumnStats(m, "shipmode")
	if err != nil {
		t.Fatal(err)
	}
	if !(dsmS.ElapsedNanos() < bun.ElapsedNanos() && bun.ElapsedNanos() < nsm.ElapsedNanos()) {
		t.Errorf("scan cost ordering violated: dsm=%.2f bun=%.2f nsm=%.2f ms",
			dsmS.ElapsedMillis(), bun.ElapsedMillis(), nsm.ElapsedMillis())
	}
	// The N-ary record is ≥ 80 bytes (Figure 4).
	if tab.Schema.RowWidth() < 80 {
		t.Errorf("row width = %d, want ≥ 80", tab.Schema.RowWidth())
	}
}

func TestScanColumnStatsEmptyTable(t *testing.T) {
	// A table without rows scans nothing: all three stat sets are
	// zero, not an error.
	tab := itemTable(t, 0)
	nsm, bun, dsmS, err := tab.ScanColumnStats(memsim.Origin2000(), "shipmode")
	if err != nil {
		t.Fatal(err)
	}
	if nsm != (memsim.Stats{}) || bun != (memsim.Stats{}) || dsmS != (memsim.Stats{}) {
		t.Errorf("empty table: nsm=%+v bun=%+v dsm=%+v, want zero stats", nsm, bun, dsmS)
	}
	if _, _, _, err := tab.ScanColumnStats(memsim.Origin2000(), "nope"); err == nil {
		t.Error("missing column accepted")
	}
}

// Property: decompose→gather round-trips arbitrary small tables.
func TestDecomposeGatherRoundtripProperty(t *testing.T) {
	schema := Schema{Name: "p", Cols: []ColumnDef{
		{Name: "k", Type: LInt},
		{Name: "v", Type: LFloat},
		{Name: "s", Type: LString},
	}}
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%200 + 1
		rng := workload.NewRNG(seed)
		rows := make([][]any, n)
		for i := range rows {
			rows[i] = []any{
				int64(rng.Intn(1 << 20)),
				float64(rng.Intn(1000)) / 7,
				[]string{"a", "b", "c"}[rng.Intn(3)],
			}
		}
		tab, err := Decompose(schema, rows)
		if err != nil {
			return false
		}
		pos := make([]int32, n)
		for i := range pos {
			pos[i] = int32(i)
		}
		kc, err1 := tab.Column("k")
		vc, err2 := tab.Column("v")
		sc, err3 := tab.Column("s")
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		is := AppendIntsPos(nil, kc, pos)
		fs := AppendFloatsPos(nil, vc, pos)
		ss, err := AppendStringsPos(nil, sc, pos)
		if err != nil {
			return false
		}
		for i := range rows {
			if is[i] != rows[i][0].(int64) || fs[i] != rows[i][1].(float64) || ss[i] != rows[i][2].(string) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

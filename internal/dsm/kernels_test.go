package dsm

import (
	"reflect"
	"testing"

	"monetlite/internal/bat"
	"monetlite/internal/workload"
)

// The into-caller-buffer pipeline kernels must agree exactly with the
// whole-column dsm operators, and must not allocate when the caller's
// buffer has capacity.

func kernelTable(t *testing.T, n int) *Table {
	t.Helper()
	tbl, err := ItemTable(n, 42)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestSelectAndFilterPosKernels(t *testing.T) {
	tbl := kernelTable(t, 4096)
	date, err := tbl.Column("date1")
	if err != nil {
		t.Fatal(err)
	}
	ship, err := tbl.Column("shipmode")
	if err != nil {
		t.Fatal(err)
	}

	// Ranged select into a caller buffer vs the whole-column scan.
	oids, err := tbl.SelectRange(nil, "date1", 8500, 9499)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]int32, 0, 4096)
	var got []int32
	for _, r := range [][2]int{{0, 1000}, {1000, 1000}, {1000, 4096}} {
		part := SelectRangePos(date, 8500, 9499, r[0], r[1], buf[:0])
		got = append(got, part...)
	}
	if len(got) != len(oids) {
		t.Fatalf("SelectRangePos found %d positions, scan %d", len(got), len(oids))
	}
	for i := range oids {
		if int64(got[i]) != int64(oids[i]) {
			t.Fatalf("position %d: kernel %d, scan %d", i, got[i], oids[i])
		}
	}

	// Code select + range refilter compose like two scans.
	code, ok := ship.Enc.Code("MAIL")
	if !ok {
		t.Fatal("MAIL outside dictionary")
	}
	pos := SelectCodePos(ship, code, 0, 4096, buf[:0])
	pos = FilterRangePos(date, 8500, 9499, pos)
	want, err := tbl.SelectString(nil, "shipmode", "MAIL")
	if err != nil {
		t.Fatal(err)
	}
	dates, err := tbl.GatherInt(nil, "date1", want)
	if err != nil {
		t.Fatal(err)
	}
	wantBoth := 0
	for _, v := range dates {
		if v >= 8500 && v <= 9499 {
			wantBoth++
		}
	}
	if len(pos) != wantBoth {
		t.Fatalf("code+range filter kept %d rows, scans agree on %d", len(pos), wantBoth)
	}

	// FilterCodePos over an identity position vector equals the code
	// scan.
	idn := buf[:0]
	for i := 0; i < 4096; i++ {
		idn = append(idn, int32(i))
	}
	kept := FilterCodePos(ship, code, idn)
	if len(kept) != len(want) {
		t.Fatalf("FilterCodePos kept %d, scan %d", len(kept), len(want))
	}

	// The Keep forms filter a row vector by a separate position vector
	// (a pipeline row i living at storage position pos[i]): reversed,
	// duplicated positions keep exactly the rows whose value qualifies.
	var rows, rpos []int32
	for i := 0; i < 2*4096; i++ {
		rows = append(rows, int32(i))
		rpos = append(rpos, int32(4095-i/2))
	}
	keepRange := KeepRangePos(date, 8500, 9499, rpos, append([]int32(nil), rows...))
	keepCode := KeepCodePos(ship, code, rpos, append([]int32(nil), rows...))
	var wantRange, wantCode []int32
	for i, p := range rpos {
		if v := date.Vec.Int(int(p)); v >= 8500 && v <= 9499 {
			wantRange = append(wantRange, rows[i])
		}
		if CodeAt(ship, int(p)) == code {
			wantCode = append(wantCode, rows[i])
		}
	}
	if !reflect.DeepEqual(keepRange, wantRange) || !reflect.DeepEqual(keepCode, wantCode) {
		t.Fatalf("Keep kernels kept %d/%d rows, want %d/%d", len(keepRange), len(keepCode), len(wantRange), len(wantCode))
	}
}

func TestGatherPosKernels(t *testing.T) {
	tbl := kernelTable(t, 2048)
	rng := workload.NewRNG(3)
	pos := make([]int32, 0, 300)
	for i := 0; i < 300; i++ {
		pos = append(pos, int32(rng.Intn(2048)))
	}
	oids := make([]bat.Oid, len(pos))
	for i, p := range pos {
		oids[i] = bat.Oid(p)
	}

	price, _ := tbl.Column("price")
	order, _ := tbl.Column("order")
	ship, _ := tbl.Column("shipmode")

	wantF, err := tbl.GatherFloat(nil, "price", oids)
	if err != nil {
		t.Fatal(err)
	}
	if gotF := AppendFloatsPos(nil, price, pos); !reflect.DeepEqual(gotF, wantF) {
		t.Error("AppendFloatsPos differs from GatherFloat")
	}
	if gotF := GatherFloatsPos(price, pos, make([]float64, 0, len(pos))); !reflect.DeepEqual(gotF, wantF) {
		t.Error("GatherFloatsPos differs from GatherFloat")
	}
	wantI, err := tbl.GatherInt(nil, "order", oids)
	if err != nil {
		t.Fatal(err)
	}
	if gotI := AppendIntsPos(nil, order, pos); !reflect.DeepEqual(gotI, wantI) {
		t.Error("AppendIntsPos differs from GatherInt")
	}
	wantS, err := tbl.GatherString(nil, "shipmode", oids)
	if err != nil {
		t.Fatal(err)
	}
	gotS, err := AppendStringsPos(nil, ship, pos)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotS, wantS) {
		t.Error("AppendStringsPos differs from GatherString")
	}
	// Codes: unsigned, matching CodeAt.
	codes := AppendCodesPos(nil, ship, pos)
	for i, p := range pos {
		if codes[i] != CodeAt(ship, int(p)) {
			t.Fatalf("code at %d: %d, want %d", p, codes[i], CodeAt(ship, int(p)))
		}
	}
}

func TestPosKernelsDoNotAllocate(t *testing.T) {
	tbl := kernelTable(t, 4096)
	date, _ := tbl.Column("date1")
	price, _ := tbl.Column("price")
	posBuf := make([]int32, 0, 4096)
	fltBuf := make([]float64, 0, 4096)
	marks := make([]uint64, 4096/64)
	for i := range marks {
		marks[i] = 0x8040201008040201 << (i % 8)
	}
	allocs := testing.AllocsPerRun(20, func() {
		pos := SelectRangePos(date, 8000, 9999, 0, 4096, posBuf[:0])
		pos = FilterRangePos(date, 8500, 9499, pos)
		GatherFloatsPos(price, pos, fltBuf)
		SelectBitsPos(marks, 3, 4093, posBuf[:0])
	})
	if allocs != 0 {
		t.Errorf("select→filter→gather pipeline and bitmap drain allocated %.1f times per run, want 0", allocs)
	}
}

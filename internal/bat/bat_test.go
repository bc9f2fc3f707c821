package bat

import (
	"testing"
	"testing/quick"

	"monetlite/internal/memsim"
)

func TestPairsBasics(t *testing.T) {
	p := NewPairs(10)
	if p.Len() != 10 || p.Bytes() != 80 {
		t.Errorf("Len=%d Bytes=%d", p.Len(), p.Bytes())
	}
	if err := p.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if (&Pairs{}).Validate() == nil {
		t.Error("nil storage accepted")
	}
	if p.Bound() {
		t.Error("fresh BAT should be unbound")
	}
}

func TestPairsBindAddr(t *testing.T) {
	s := memsim.MustNew(memsim.Origin2000())
	p := NewPairs(100)
	p.Bind(s)
	if !p.Bound() {
		t.Fatal("Bind did not bind")
	}
	base := p.Base()
	if p.Addr(0) != base || p.Addr(7) != base+56 {
		t.Errorf("Addr(7) = %#x, want base+56", p.Addr(7))
	}
	// Rebinding is a no-op.
	p.Bind(s)
	if p.Base() != base {
		t.Error("rebind moved the BAT")
	}
	// Nil sim is a no-op.
	q := NewPairs(1)
	q.Bind(nil)
	if q.Bound() {
		t.Error("nil bind bound the BAT")
	}
}

func TestPairsSliceSharesStorageAndAddresses(t *testing.T) {
	s := memsim.MustNew(memsim.Origin2000())
	p := NewPairs(100)
	for i := range p.BUNs {
		p.BUNs[i] = Pair{Head: Oid(i), Tail: uint32(i * 2)}
	}
	p.Bind(s)
	v := p.Slice(10, 20)
	if v.Len() != 10 {
		t.Fatalf("view len = %d", v.Len())
	}
	if v.BUNs[0] != p.BUNs[10] {
		t.Error("view does not share storage")
	}
	if v.Addr(0) != p.Addr(10) {
		t.Errorf("view Addr(0)=%#x, want %#x", v.Addr(0), p.Addr(10))
	}
	v.BUNs[0].Tail = 999
	if p.BUNs[10].Tail != 999 {
		t.Error("view write not visible in parent")
	}
	// Slicing an unbound BAT stays unbound.
	u := NewPairs(10).Slice(2, 5)
	if u.Bound() {
		t.Error("slice of unbound BAT claims bound")
	}
}

func TestPairsClone(t *testing.T) {
	p := NewPairs(5)
	p.BUNs[3].Tail = 7
	c := p.Clone()
	c.BUNs[3].Tail = 8
	if p.BUNs[3].Tail != 7 {
		t.Error("clone shares storage")
	}
	if c.Bound() {
		t.Error("clone should be unbound")
	}
}

func TestVoidVec(t *testing.T) {
	v := NewVoid(8, 1000)
	if v.Len() != 8 || v.Width() != 0 || v.Type() != TVoid {
		t.Errorf("void geometry: len=%d width=%d type=%v", v.Len(), v.Width(), v.Type())
	}
	if v.Int(3) != 1003 {
		t.Errorf("Int(3) = %d, want 1003", v.Int(3))
	}
	if pos, ok := v.Position(1005); !ok || pos != 5 {
		t.Errorf("Position(1005) = %d,%v", pos, ok)
	}
	if _, ok := v.Position(999); ok {
		t.Error("Position below seqbase accepted")
	}
	if _, ok := v.Position(1008); ok {
		t.Error("Position past end accepted")
	}
}

func TestTypedVectors(t *testing.T) {
	cases := []struct {
		v     Vector
		typ   Type
		width int
		at3   int64
	}{
		{NewI8([]int8{0, 1, 2, 3}), TI8, 1, 3},
		{NewI16([]int16{0, 10, 20, 30}), TI16, 2, 30},
		{NewI32([]int32{0, 100, 200, 300}), TI32, 4, 300},
		{NewI64([]int64{0, 1e9, 2e9, 3e9}), TI64, 8, 3e9},
	}
	for _, tc := range cases {
		if tc.v.Type() != tc.typ || tc.v.Width() != tc.width {
			t.Errorf("%v: type=%v width=%d", tc.typ, tc.v.Type(), tc.v.Width())
		}
		if tc.v.Len() != 4 {
			t.Errorf("%v: len=%d", tc.typ, tc.v.Len())
		}
		if got := tc.v.Int(3); got != tc.at3 {
			t.Errorf("%v: Int(3)=%d want %d", tc.typ, got, tc.at3)
		}
	}
	f := NewF64([]float64{0.5, 1.5})
	if f.Float(1) != 1.5 {
		t.Errorf("Float(1) = %v", f.Float(1))
	}
	s := NewStrs([]string{"a", "b"})
	if s.Str(1) != "b" || s.Type() != TStr {
		t.Errorf("StrVec: %q %v", s.Str(1), s.Type())
	}
}

func TestVectorBindAndTouch(t *testing.T) {
	sim := memsim.MustNew(memsim.Origin2000())
	v := NewI32([]int32{1, 2, 3, 4})
	if v.Addr(0) != 0 {
		t.Error("unbound vector has non-zero addr")
	}
	v.Bind(sim)
	if v.Addr(1) != v.Addr(0)+4 {
		t.Errorf("addr stride: %#x vs %#x", v.Addr(1), v.Addr(0))
	}
	before := sim.Stats().Accesses
	v.Touch(sim, 2)
	if sim.Stats().Accesses != before+1 {
		t.Error("Touch did not access")
	}
	// Touch on unbound vector or nil sim is a no-op.
	u := NewI32([]int32{1})
	u.Touch(sim, 0)
	u.Touch(nil, 0)
	void := NewVoid(4, 0)
	void.Bind(sim)
	void.Touch(sim, 0) // storage-free: never accesses
}

func TestTypeStrings(t *testing.T) {
	for typ, want := range map[Type]string{
		TVoid: "void", TI8: "i8", TI16: "i16", TI32: "i32",
		TI64: "i64", TF64: "f64", TOid: "oid", TStr: "str",
	} {
		if typ.String() != want {
			t.Errorf("%d.String() = %q, want %q", typ, typ.String(), want)
		}
	}
	if Type(99).String() == "" {
		t.Error("unknown type has empty string")
	}
}

// Property: Slice(lo,hi) of a bound BAT has addresses consistent with
// the parent for all positions.
func TestSliceAddressProperty(t *testing.T) {
	sim := memsim.MustNew(memsim.Origin2000())
	p := NewPairs(257)
	p.Bind(sim)
	f := func(loRaw, hiRaw uint16) bool {
		lo := int(loRaw) % p.Len()
		hi := lo + int(hiRaw)%(p.Len()-lo) + 1
		v := p.Slice(lo, hi)
		for i := 0; i < v.Len(); i++ {
			if v.Addr(i) != p.Addr(lo+i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

package workload

import (
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	if NewRNG(1).Uint64() == NewRNG(2).Uint64() {
		t.Error("different seeds collided on first draw")
	}
}

func TestRNGRanges(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 1000; i++ {
		if n := r.Intn(10); n < 0 || n >= 10 {
			t.Fatalf("Intn out of range: %d", n)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestShufflePreservesMultiset(t *testing.T) {
	r := NewRNG(3)
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, x := range xs {
		sum += x
	}
	Shuffle(r, xs)
	got := 0
	for _, x := range xs {
		got += x
	}
	if got != sum {
		t.Error("shuffle lost elements")
	}
}

func TestFeistelBijection(t *testing.T) {
	// On a 16-bit subdomain, outputs of distinct inputs must be
	// distinct (the Feistel network is a bijection on 32 bits).
	seen := make(map[uint32]bool, 1<<16)
	for i := 0; i < 1<<16; i++ {
		v := feistel32(uint32(i), 12345)
		if seen[v] {
			t.Fatalf("collision at input %d", i)
		}
		seen[v] = true
	}
}

func TestUniqueValuesUniqueAndSpread(t *testing.T) {
	vals := UniqueValues(100000, 99)
	seen := make(map[uint32]bool, len(vals))
	var lowBitOnes int
	for _, v := range vals {
		if seen[v] {
			t.Fatal("duplicate value")
		}
		seen[v] = true
		lowBitOnes += int(v & 1)
	}
	// Low bits should be balanced (radix clustering relies on it).
	frac := float64(lowBitOnes) / float64(len(vals))
	if frac < 0.45 || frac > 0.55 {
		t.Errorf("low-bit balance %.3f, want ≈0.5", frac)
	}
}

func TestUniquePairsShape(t *testing.T) {
	p := UniquePairs(1000, 5)
	if p.Len() != 1000 {
		t.Fatalf("len = %d", p.Len())
	}
	heads := make(map[uint32]bool, 1000)
	tails := make(map[uint32]bool, 1000)
	for _, b := range p.BUNs {
		heads[uint32(b.Head)] = true
		tails[b.Tail] = true
	}
	if len(heads) != 1000 || len(tails) != 1000 {
		t.Errorf("distinct heads=%d tails=%d, want 1000 each", len(heads), len(tails))
	}
}

func TestJoinInputsHitRateOne(t *testing.T) {
	l, r := JoinInputs(500, 11)
	lv := make(map[uint32]bool, 500)
	for _, b := range l.BUNs {
		lv[b.Tail] = true
	}
	matched := 0
	for _, b := range r.BUNs {
		if lv[b.Tail] {
			matched++
		}
	}
	if matched != 500 {
		t.Errorf("matched %d of 500 (hit rate must be 1)", matched)
	}
	// Orders must differ (independent shuffles).
	same := true
	for i := range l.BUNs {
		if l.BUNs[i] != r.BUNs[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("l and r in identical order")
	}
}

func TestDensePairsDomain(t *testing.T) {
	p := DensePairs(256, 1)
	seen := make([]bool, 256)
	for _, b := range p.BUNs {
		if b.Tail >= 256 || seen[b.Tail] {
			t.Fatal("not a permutation of [0,256)")
		}
		seen[b.Tail] = true
	}
}

func TestDescribe(t *testing.T) {
	cases := map[int]string{
		8000000: "8M", 64000000: "64M", 125000: "125K", 15625: "15625", 16000: "16K",
	}
	for n, want := range cases {
		if got := Describe(n); got != want {
			t.Errorf("Describe(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestItemsDeterministicAndValid(t *testing.T) {
	a := Items(100, 42)
	b := Items(100, 42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed diverged")
		}
	}
	modes := make(map[string]bool)
	for _, it := range a {
		if it.Qty < 1 || it.Qty > 50 {
			t.Errorf("qty out of range: %d", it.Qty)
		}
		if it.Discnt != 0 && it.Discnt != 0.1 {
			t.Errorf("discount out of domain: %v", it.Discnt)
		}
		modes[it.ShipMode] = true
	}
	if len(modes) < 3 {
		t.Errorf("shipmode domain too small in sample: %d", len(modes))
	}
}

// Property: UniquePairs is a bijection i→value for every cardinality.
func TestUniquePairsProperty(t *testing.T) {
	f := func(nRaw uint16, seed uint64) bool {
		n := int(nRaw)%2000 + 1
		p := UniquePairs(n, seed)
		tails := make(map[uint32]bool, n)
		for _, b := range p.BUNs {
			tails[b.Tail] = true
		}
		return len(tails) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

package calibrate

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"monetlite/internal/memsim"
)

// fixturePath is the committed host profile measured once on a real
// machine; engine tests load it instead of calibrating CI hardware.
const fixturePath = "testdata/host-fixture.json"

// TestCheckCannedProfiles: every canned memsim profile satisfies the
// calibration sanity invariants — Check must accept what the simulator
// already trusts.
func TestCheckCannedProfiles(t *testing.T) {
	for _, m := range append(memsim.Machines(), memsim.Modern()) {
		if err := Check(m); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
}

// TestCheckRejectsBroken: Check catches each class of impossible
// calibration output.
func TestCheckRejectsBroken(t *testing.T) {
	base := memsim.Modern()
	cases := map[string]func(*memsim.Machine){
		"L1 larger than L2":  func(m *memsim.Machine) { m.L1.Size = m.L2.Size * 2 },
		"zero work constant": func(m *memsim.Machine) { m.Cost.WScanBUN = 0 },
		"negative latency":   func(m *memsim.Machine) { m.Cost.LatTLB = -1 },
		"L2 slower than RAM": func(m *memsim.Machine) { m.Cost.LatL2 = m.Cost.LatMem * 2 },
		"seq slower than random": func(m *memsim.Machine) {
			m.Cost.LatMemSeq = m.Cost.LatMem * 2
		},
	}
	for name, mutate := range cases {
		m := base
		mutate(&m)
		if err := Check(m); err == nil {
			t.Errorf("%s: Check accepted a broken profile", name)
		}
	}
}

// TestFixtureProfile: the committed fixture loads, carries the host
// name, and passes the full invariant check — it is what engine tests
// run the cost model on.
func TestFixtureProfile(t *testing.T) {
	m, err := memsim.LoadMachineFile(fixturePath)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != memsim.HostName {
		t.Errorf("fixture name = %q, want %q", m.Name, memsim.HostName)
	}
	if err := Check(m); err != nil {
		t.Errorf("fixture fails calibration invariants: %v", err)
	}
}

// TestSaveLoadRoundTrip: Save→Load→Save is byte-identical — the
// persistence format is deterministic, so a re-saved calibration never
// shows up as a spurious diff.
func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	p1 := filepath.Join(dir, "a.json")
	p2 := filepath.Join(dir, "b.json")
	orig, err := memsim.LoadMachineFile(fixturePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := memsim.SaveMachineFile(orig, p1); err != nil {
		t.Fatal(err)
	}
	back, err := memsim.LoadMachineFile(p1)
	if err != nil {
		t.Fatal(err)
	}
	if back != orig {
		t.Fatalf("round-trip changed the machine:\n got %+v\nwant %+v", back, orig)
	}
	if err := memsim.SaveMachineFile(back, p2); err != nil {
		t.Fatal(err)
	}
	b1, err := os.ReadFile(p1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(p2)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Error("re-saving a loaded profile produced different bytes")
	}
}

// TestHostSearchPathOverride: $MONETLITE_CALIBRATION pins the file and
// MachineByName("host") resolves through it.
func TestHostSearchPathOverride(t *testing.T) {
	t.Setenv(memsim.HostFileEnv, fixturePath)
	m, err := memsim.MachineByName(memsim.HostName)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != memsim.HostName {
		t.Errorf("resolved name = %q, want %q", m.Name, memsim.HostName)
	}
	fix, err := memsim.LoadMachineFile(fixturePath)
	if err != nil {
		t.Fatal(err)
	}
	if m != fix {
		t.Error("MachineByName(host) differs from the fixture it should have loaded")
	}
}

// TestLoadHostRejectsBrokenFile: an existing but invalid calibration
// file is an error, never a silent fallback.
func TestLoadHostRejectsBrokenFile(t *testing.T) {
	p := filepath.Join(t.TempDir(), "broken.json")
	if err := os.WriteFile(p, []byte(`{"Name":"host"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Setenv(memsim.HostFileEnv, p)
	if _, _, err := memsim.LoadHost(); err == nil {
		t.Error("LoadHost accepted a geometry-free profile")
	}
	if _, err := memsim.MachineByName(memsim.HostName); err == nil {
		t.Error("MachineByName(host) accepted a geometry-free profile")
	}
}

// TestHostConfigTooSmall: a config that cannot resolve any knee is
// rejected up front instead of producing garbage.
func TestHostConfigTooSmall(t *testing.T) {
	if _, _, err := Host(Config{MaxWorkingSet: 1 << 10, ChaseSteps: 16, Repeats: 1}); err == nil {
		t.Error("Host accepted a degenerate config")
	}
}

// staircase builds a synthetic pointer-chase curve over working sets of
// 4 KB .. 64 MB with one latency plateau per level.
func staircase(l1Size, l2Size int, l1NS, l2NS, memNS float64) []Point {
	var curve []Point
	for x := 4 << 10; x <= 64<<20; x *= 2 {
		ns := memNS
		switch {
		case x <= l1Size:
			ns = l1NS
		case x <= l2Size:
			ns = l2NS
		}
		curve = append(curve, Point{X: x, NS: ns})
	}
	return curve
}

// TestMissLatenciesMonotone: the derived per-level miss latencies are
// positive and monotone whatever the plateaus — including plateaus
// that rise level by level while their steps shrink, the chase curve a
// noisy 2-core VM produces about one run in three (L1 1 ns, L2
// 5.25 ns, RAM 8.68 ns: raw differences 4.25 then 3.43, which Check
// rejects).
func TestMissLatenciesMonotone(t *testing.T) {
	const l1, l2 = 32 << 10, 1 << 20
	cases := []struct {
		name               string
		l1NS, l2NS, memNS  float64
		wantL2, wantMemMin float64
	}{
		{"clean staircase", 1, 4, 80, 3, 76},
		{"shrinking step", 1, 5.25, 8.68, 4.25, 4.25},
		{"flat L1/L2", 2, 2, 90, 2, 86},
		{"flat L2/RAM", 1, 6, 6, 5, 6},
	}
	for _, tc := range cases {
		curve := staircase(l1, l2, tc.l1NS, tc.l2NS, tc.memNS)
		latL2, latMem := missLatencies(curve, l1, l2)
		if math.Abs(latL2-tc.wantL2) > 1e-9 || latMem < tc.wantMemMin-1e-9 {
			t.Errorf("%s: LatL2 %v, LatMem %v; want LatL2 %v, LatMem ≥ %v",
				tc.name, latL2, latMem, tc.wantL2, tc.wantMemMin)
		}
		m := memsim.Modern()
		m.Cost.LatL2, m.Cost.LatMem = latL2, latMem
		m.Cost.LatMemSeq = min(m.Cost.LatMemSeq, latMem)
		if err := Check(m); err != nil {
			t.Errorf("%s: derived latencies fail Check: %v", tc.name, err)
		}
	}
}

// TestHostLiveMeasurement runs a real (reduced-sweep) calibration on
// the machine executing the tests and checks only the invariants — the
// measured numbers vary by host, their consistency must not. Skipped
// in -short mode: it is a multi-second timing measurement.
func TestHostLiveMeasurement(t *testing.T) {
	if testing.Short() {
		t.Skip("live hardware measurement; skipped in -short mode")
	}
	cfg := Quick()
	cfg.MaxWorkingSet = 8 << 20
	cfg.ChaseSteps = 1 << 15
	m, rep, err := Host(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(m); err != nil {
		t.Errorf("live calibration violates invariants: %v", err)
	}
	if m.Name != memsim.HostName {
		t.Errorf("live calibration name = %q, want %q", m.Name, memsim.HostName)
	}
	if rep == nil || len(rep.ChaseCurve) < 4 || len(rep.LineCurve) == 0 || len(rep.TLBCurve) == 0 {
		t.Fatalf("report missing curves: %+v", rep)
	}
	p := filepath.Join(t.TempDir(), "live.json")
	if err := memsim.SaveMachineFile(m, p); err != nil {
		t.Fatal(err)
	}
	back, err := memsim.LoadMachineFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if back != m {
		t.Error("live profile did not survive a save/load round trip")
	}
}

// Stub of the real costmodel package: costcover recognizes Breakdown
// by package name and type name only, and the raw-pricing rule by the
// Total/Millis method names on it.
package costmodel

// Machine stands in for memsim.Machine in pricing signatures.
type Machine struct {
	Name string
}

// Breakdown mirrors the real per-operator cost prediction.
type Breakdown struct {
	CPUNanos float64
}

// Total prices the breakdown directly on a machine — the raw path the
// costcover rule forbids inside the engine.
func (b Breakdown) Total(m Machine) float64 { return b.CPUNanos }

// Millis is Total in milliseconds.
func (b Breakdown) Millis(m Machine) float64 { return b.Total(m) / 1e6 }
